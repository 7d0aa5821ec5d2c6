package core

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/authority"
	"repro/internal/cache"
	"repro/internal/store"
)

// Session is the per-client soft state the controller keeps (§3.1): an
// identity and a last-active stamp. It is created when a client first
// connects (identified by its certificate), persists past disconnects,
// and expires only after a TTL. Asynchronous results are organized under
// the owning session's key; nothing of a transaction outlives its
// request.
type Session struct {
	ctl        *Controller
	clientKey  string       // certificate key fingerprint
	lastActive atomic.Int64 // unix nanos
}

// asyncState is the controller-wide asynchronous machinery: one
// result window of the last 2048 operations (§4.1) and a worker pool
// draining queued operations.
type asyncState struct {
	results *cache.ResultBuffer
	queue   chan func()
	wg      sync.WaitGroup
	nextOp  atomic.Uint64
}

// asyncWorkers sizes the pool executing asynchronous operations.
const asyncWorkers = 32

// ensureAsync lazily starts the async worker pool.
func (c *Controller) ensureAsync() *asyncState {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.async == nil {
		a := &asyncState{
			results: cache.NewResultBuffer(0, c.epc, "result-buffer"),
			queue:   make(chan func(), 4096),
		}
		for i := 0; i < asyncWorkers; i++ {
			a.wg.Add(1)
			go func() {
				defer a.wg.Done()
				for f := range a.queue {
					f()
				}
			}()
		}
		c.async = a
	}
	return c.async
}

// Session returns (creating if needed) the session context for a
// client key fingerprint. Reconnecting clients get their existing
// context back while it lives (§3.1). Creating one first drops the
// sessions idle longer than sessionTTL by the controller's clock — at
// most once a minute — releasing their enclave memory.
func (c *Controller) Session(clientKey string) *Session {
	c.mu.Lock()
	defer c.mu.Unlock()
	if s, ok := c.sessions[clientKey]; ok {
		s.touch()
		return s
	}
	if now := c.clock(); now.Sub(c.sessionsSwept) >= time.Minute {
		c.sessionsSwept = now
		cutoff := now.Add(-sessionTTL).UnixNano()
		for k, s := range c.sessions {
			if s.lastActive.Load() < cutoff {
				delete(c.sessions, k)
				c.epc.Free("sessions", 30<<10)
			}
		}
	}
	s := &Session{ctl: c, clientKey: clientKey}
	s.touch()
	c.sessions[clientKey] = s
	// Each connected client costs a session object in enclave memory
	// (30 KB default, §4.2).
	c.epc.Alloc("sessions", 30<<10)
	return s
}

// sessionTTL is how long an idle session context lives.
const sessionTTL = 10 * time.Minute

func (s *Session) touch() { s.lastActive.Store(s.ctl.clock().UnixNano()) }

// Put stores (or updates) an object synchronously, returning the new
// version.
func (s *Session) Put(ctx context.Context, key string, value []byte, opts PutOptions) (int64, error) {
	s.touch()
	return s.ctl.putObject(ctx, s.clientKey, key, value, opts)
}

// Get fetches an object (latest version unless opts selects one).
func (s *Session) Get(ctx context.Context, key string, opts GetOptions) ([]byte, *store.Meta, error) {
	s.touch()
	rec, err := s.ctl.readObject(ctx, s.clientKey, key, opts, true)
	if err != nil {
		return nil, nil, err
	}
	m := rec.Meta
	return rec.Payload, &m, nil
}

// Delete removes an object and its history. It drops the destroyed
// version; DeleteOp reports it.
func (s *Session) Delete(ctx context.Context, key string, opts DeleteOptions) error {
	s.touch()
	_, err := s.ctl.deleteObject(ctx, s.clientKey, key, opts)
	return err
}

// ListVersions lists the stored versions of an object.
func (s *Session) ListVersions(ctx context.Context, key string, certs []*authority.Certificate) ([]int64, error) {
	s.touch()
	return s.ctl.listVersions(ctx, s.clientKey, key, certs)
}

// PutPolicy compiles and stores a policy, returning its id.
func (s *Session) PutPolicy(ctx context.Context, src string) (string, error) {
	s.touch()
	return s.ctl.PutPolicy(ctx, src)
}

// Verify returns the integrity-checked metadata of a stored version —
// the client-facing attestation of stored objects and their policies
// (§1: clients can verify storage operations): content hash and policy
// hash, recomputed. It reads the object, so it is planned like a read:
// the object's policy must grant the session the read under certs, the
// certified facts attached to the request.
func (s *Session) Verify(ctx context.Context, key string, version int64, certs ...*authority.Certificate) (*store.Meta, error) {
	s.touch()
	head, _, err := s.ctl.planReadKey(ctx, s.clientKey, key, GetOptions{Certs: certs})
	if err != nil {
		return nil, err
	}
	rec, err := s.ctl.loadPlanned(ctx, head, version)
	if err != nil {
		return nil, err
	}
	if err := s.ctl.verifyContent(ctx, rec); err != nil {
		return nil, err
	}
	m := rec.Meta
	return &m, nil
}
