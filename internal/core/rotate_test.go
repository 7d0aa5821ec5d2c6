package core

import (
	"bytes"
	"context"
	"errors"
	"net"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/store"
)

// heldConn holds, once armed, the first request frame that carries
// marker until release closes: a call the client has signed and sent
// and the drive has not yet seen.
type heldConn struct {
	net.Conn
	marker  []byte
	armed   *atomic.Bool
	held    chan struct{}
	release chan struct{}
}

func (c heldConn) Write(b []byte) (int, error) {
	if bytes.Contains(b, c.marker) && c.armed.CompareAndSwap(true, false) {
		close(c.held)
		<-c.release
	}
	return c.Conn.Write(b)
}

// TestRotationWaitsForCallsSignedUnderOldCredentials: a credential
// rotation drops a drive's old account only once every call signed
// under it has been answered. A call held on the wire across the switch
// is served under the old account, and the rotation finishes after it.
func TestRotationWaitsForCallsSignedUnderOldCredentials(t *testing.T) {
	marker := store.MetaKey("held-across-rotation")
	armed := new(atomic.Bool)
	held, release := make(chan struct{}), make(chan struct{})
	h := newHarness(t, 1, func(c *Config) {
		dial := c.Drives[0].Dial
		c.Drives[0].Dial = func(ctx context.Context) (net.Conn, error) {
			conn, err := dial(ctx)
			if err != nil {
				return nil, err
			}
			return heldConn{conn, marker, armed, held, release}, nil
		}
	})
	ctx := context.Background()
	old := h.ctl.drives.Credentials(0).Identity

	armed.Store(true)
	answered := make(chan error, 1)
	go func() {
		_, err := h.ctl.drives.ReadHead(ctx, "held-across-rotation", []int{0})
		answered <- err
	}()
	<-held
	rotated := make(chan error, 1)
	go func() { rotated <- h.ctl.RotateDriveCredentials(ctx, 1) }()
	next := adminIdentityForEpoch(1)
	if !eventually(func() bool { return h.ctl.drives.Credentials(0).Identity == next }) {
		t.Fatal("the pool never switched to the new credentials")
	}
	select {
	case err := <-rotated:
		close(release)
		t.Fatalf("the rotation returned (%v) while a call signed as %s was unanswered", err, old)
	case <-time.After(50 * time.Millisecond):
	}
	if !slices.Contains(h.drives[0].Accounts(), old) {
		t.Error("the old account was dropped while a call signed under it was in flight")
	}
	close(release)
	if err := <-answered; err != nil && !errors.Is(err, ErrNotFound) {
		t.Errorf("the call signed before the switch: %v", err)
	}
	if err := <-rotated; err != nil {
		t.Fatalf("rotate: %v", err)
	}
	if got := h.drives[0].Accounts(); !slices.Equal(got, []string{next}) {
		t.Errorf("accounts after the rotation %v, want [%s]", got, next)
	}
}
