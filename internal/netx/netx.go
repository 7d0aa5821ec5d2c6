// Package netx provides an in-process net.Listener/Dialer pair backed
// by net.Pipe. Benchmarks and tests use it to run the full Pesos stack
// (controller, drives, clients) without touching the host network
// while exercising exactly the same connection-oriented code paths as
// TCP.
package netx

import (
	"context"
	"errors"
	"net"
	"sync"
)

// ErrClosed is returned by Accept and Dial after the listener closes.
var ErrClosed = errors.New("netx: listener closed")

// Listener is an in-memory net.Listener. Connections are created with
// Dial and surface on Accept as the other end of a net.Pipe.
type Listener struct {
	addr   addr
	conns  chan net.Conn
	once   sync.Once
	closed chan struct{}
}

// NewListener creates an in-memory listener with the given synthetic
// address (used only in error text and logging).
func NewListener(name string) *Listener {
	return &Listener{
		addr:   addr(name),
		conns:  make(chan net.Conn, 16),
		closed: make(chan struct{}),
	}
}

// Accept waits for an in-memory connection.
func (l *Listener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.closed:
		return nil, ErrClosed
	}
}

// Close unblocks Accept and future Dial calls with ErrClosed, and closes
// the connections still waiting in the backlog: nobody will accept them,
// and a dialer left holding the other end of such a pipe would block on
// its first write for ever (a closed TCP listener resets its backlog too).
func (l *Listener) Close() error {
	l.once.Do(func() { close(l.closed) })
	l.drain()
	return nil
}

// drain closes every connection queued for Accept.
func (l *Listener) drain() {
	for {
		select {
		case c := <-l.conns:
			c.Close()
		default:
			return
		}
	}
}

// Addr returns the synthetic address.
func (l *Listener) Addr() net.Addr { return l.addr }

// Dial creates a connection whose peer is delivered to Accept.
func (l *Listener) Dial() (net.Conn, error) {
	return l.DialContext(context.Background())
}

// DialContext is Dial honoring context cancellation.
func (l *Listener) DialContext(ctx context.Context) (net.Conn, error) {
	// Fail deterministically once the listener is closed, even if the
	// backlog channel could still accept the connection.
	select {
	case <-l.closed:
		return nil, ErrClosed
	default:
	}
	client, server := net.Pipe()
	select {
	case l.conns <- server:
		select {
		case <-l.closed:
			// Close ran between the check above and the enqueue, and its
			// drain may have passed already: finish it here.
			l.drain()
			client.Close()
			return nil, ErrClosed
		default:
			return client, nil
		}
	case <-l.closed:
		client.Close()
		server.Close()
		return nil, ErrClosed
	case <-ctx.Done():
		client.Close()
		server.Close()
		return nil, ctx.Err()
	}
}

type addr string

func (a addr) Network() string { return "mem" }
func (a addr) String() string  { return string(a) }
