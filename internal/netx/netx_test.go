package netx

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"
)

func TestDialAccept(t *testing.T) {
	ln := NewListener("test")
	defer ln.Close()
	done := make(chan []byte, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			t.Error(err)
			return
		}
		defer conn.Close()
		buf := make([]byte, 5)
		conn.Read(buf)
		done <- buf
	}()
	conn, err := ln.Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.Write([]byte("hello"))
	select {
	case got := <-done:
		if !bytes.Equal(got, []byte("hello")) {
			t.Fatalf("got %q", got)
		}
	case <-time.After(time.Second):
		t.Fatal("timeout")
	}
}

func TestClosedListener(t *testing.T) {
	ln := NewListener("test")
	ln.Close()
	if _, err := ln.Accept(); !errors.Is(err, ErrClosed) {
		t.Fatalf("accept: %v", err)
	}
	if _, err := ln.Dial(); !errors.Is(err, ErrClosed) {
		t.Fatalf("dial: %v", err)
	}
	// Double close is fine.
	if err := ln.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestDialContextCancel(t *testing.T) {
	ln := NewListener("test")
	defer ln.Close()
	// Fill the backlog so DialContext blocks.
	for i := 0; i < 16; i++ {
		if _, err := ln.Dial(); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := ln.DialContext(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("dial with full backlog: %v", err)
	}
}

func TestAddr(t *testing.T) {
	ln := NewListener("myname")
	if ln.Addr().String() != "myname" || ln.Addr().Network() != "mem" {
		t.Fatalf("addr: %v", ln.Addr())
	}
}

// TestCloseResetsTheBacklog: a connection dialled but never accepted is
// closed with the listener, so the dialer's first write fails instead of
// blocking on a pipe nobody will ever read.
func TestCloseResetsTheBacklog(t *testing.T) {
	ln := NewListener("test")
	conn, err := ln.Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	ln.Close()
	wrote := make(chan error, 1)
	go func() {
		_, err := conn.Write([]byte("hello"))
		wrote <- err
	}()
	select {
	case err := <-wrote:
		if err == nil {
			t.Fatal("write to a connection of a closed listener's backlog succeeded")
		}
	case <-time.After(time.Second):
		t.Fatal("write to a connection of a closed listener's backlog blocked")
	}
}
