package netx

import (
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
)

// ErrLinkCut is returned by dials through a cut link and by I/O on
// connections severed when the link was cut.
var ErrLinkCut = errors.New("netx: link cut")

// Link models one directed network path (say, a controller to one
// drive) with one injectable fault: a hard cut (partition). The
// zero-value Link passes traffic through untouched; the cut check is
// one atomic load, so a healthy link costs nothing material.
type Link struct {
	cut atomic.Bool

	mu    sync.Mutex
	conns map[*linkConn]struct{}
}

// Cut severs the link: existing connections through it are closed and
// new dials fail with ErrLinkCut until Heal.
func (l *Link) Cut() {
	l.cut.Store(true)
	l.mu.Lock()
	conns := make([]*linkConn, 0, len(l.conns))
	for c := range l.conns {
		conns = append(conns, c)
	}
	l.mu.Unlock()
	for _, c := range conns {
		c.Conn.Close()
	}
}

// Heal restores a cut link. Connections closed by the cut stay closed;
// new dials succeed again.
func (l *Link) Heal() { l.cut.Store(false) }

// Dial runs the supplied dial through the link: it fails fast when the
// link is cut and wraps the resulting connection so the link's cut
// applies to its traffic and a later Cut can sever it.
func (l *Link) Dial(ctx context.Context, dial func(context.Context) (net.Conn, error)) (net.Conn, error) {
	if l.cut.Load() {
		return nil, ErrLinkCut
	}
	c, err := dial(ctx)
	if err != nil {
		return nil, err
	}
	lc := &linkConn{Conn: c, link: l}
	l.mu.Lock()
	if l.conns == nil {
		l.conns = make(map[*linkConn]struct{})
	}
	l.conns[lc] = struct{}{}
	l.mu.Unlock()
	if l.cut.Load() {
		// The cut raced the dial; make it stick.
		lc.Close()
		return nil, ErrLinkCut
	}
	return lc, nil
}

type linkConn struct {
	net.Conn
	link *Link
}

func (c *linkConn) Write(b []byte) (int, error) {
	if c.link.cut.Load() {
		c.Conn.Close()
		return 0, ErrLinkCut
	}
	return c.Conn.Write(b)
}

func (c *linkConn) Read(b []byte) (int, error) {
	if c.link.cut.Load() {
		c.Conn.Close()
		return 0, ErrLinkCut
	}
	return c.Conn.Read(b)
}

func (c *linkConn) Close() error {
	l := c.link
	l.mu.Lock()
	delete(l.conns, c)
	l.mu.Unlock()
	return c.Conn.Close()
}
