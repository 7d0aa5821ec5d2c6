package netx

import (
	"context"
	"errors"
	"io"
	"net"
	"testing"
)

// pipeDialer returns a dial function producing one side of a fresh
// net.Pipe whose peer is drained by a background copier, so writes
// never block on the synchronous pipe.
func pipeDialer(t *testing.T) func(context.Context) (net.Conn, error) {
	t.Helper()
	return func(context.Context) (net.Conn, error) {
		a, b := net.Pipe()
		go io.Copy(io.Discard, b) //nolint:errcheck
		t.Cleanup(func() { a.Close(); b.Close() })
		return a, nil
	}
}

func TestLinkCutSeversDialsAndConns(t *testing.T) {
	l := &Link{}
	dial := pipeDialer(t)

	conn, err := l.Dial(context.Background(), dial)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte("hello")); err != nil {
		t.Fatalf("healthy write: %v", err)
	}

	l.Cut()
	if _, err := l.Dial(context.Background(), dial); !errors.Is(err, ErrLinkCut) {
		t.Fatalf("dial through cut link: %v, want ErrLinkCut", err)
	}
	if _, err := conn.Write([]byte("x")); !errors.Is(err, ErrLinkCut) {
		t.Fatalf("write on severed conn: %v, want ErrLinkCut", err)
	}

	l.Heal()
	conn2, err := l.Dial(context.Background(), dial)
	if err != nil {
		t.Fatalf("dial after heal: %v", err)
	}
	if _, err := conn2.Write([]byte("back")); err != nil {
		t.Fatalf("write after heal: %v", err)
	}
}
