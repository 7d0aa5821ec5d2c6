package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"net"
	"strings"
	"sync"
	"testing"

	"repro/internal/kinetic/wire"
	"repro/internal/store"
)

// linkTamper is a party on the links from the controller to its drives:
// it sees every request frame on its way to a drive and may rewrite it
// in place. The drive-link MAC covers a request's command and its
// value's length but not the value's bytes, so a value rewritten at its
// length reaches the drive's store; the records the controller writes
// must catch it where they are opened.
type linkTamper struct {
	mu sync.Mutex
	// rewrite, when set, sees each request frame body bound for drive
	// di with its decoded message, and may change the body in place; it
	// reports whether it did.
	rewrite func(di int, m *wire.Message, body []byte) bool
}

// wrap puts the tamperer on every drive link of cfg.
func (lt *linkTamper) wrap(cfg *Config) {
	for i := range cfg.Drives {
		dial := cfg.Drives[i].Dial
		cfg.Drives[i].Dial = func(ctx context.Context) (net.Conn, error) {
			conn, err := dial(ctx)
			if err != nil {
				return nil, err
			}
			return &tamperedLink{Conn: conn, di: i, lt: lt}, nil
		}
	}
}

func (lt *linkTamper) arm(f func(di int, m *wire.Message, body []byte) bool) {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	lt.rewrite = f
}

// tamperedLink reassembles the frames the client writes and hands each
// to the tamperer before sending it on.
type tamperedLink struct {
	net.Conn
	di      int
	lt      *linkTamper
	mu      sync.Mutex
	pending []byte
}

func (l *tamperedLink) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.pending = append(l.pending, p...)
	for len(l.pending) >= 5 {
		n := 5 + int(binary.BigEndian.Uint32(l.pending[1:5]))
		if len(l.pending) < n {
			break
		}
		frame := l.pending[:n]
		l.lt.mu.Lock()
		if f := l.lt.rewrite; f != nil {
			var m wire.Message
			if m.Unmarshal(frame[5:]) == nil {
				f(l.di, &m, frame[5:])
			}
		}
		l.lt.mu.Unlock()
		if _, err := l.Conn.Write(frame); err != nil {
			return 0, err
		}
		l.pending = append(l.pending[:0:0], l.pending[n:]...)
	}
	return len(p), nil
}

// chunkPut reports whether m puts chunk record idx of key, in any
// upload.
func chunkPut(m *wire.Message, key string, idx int64) bool {
	prefix := store.ChunkKey(key, 0, 0)
	prefix = prefix[:len(prefix)-12] // less the upload id and the index
	return m.Type == wire.TPut && len(m.Key) == len(prefix)+12 && bytes.HasPrefix(m.Key, prefix) &&
		binary.BigEndian.Uint32(m.Key[len(m.Key)-4:]) == uint32(idx)
}

// flipInValue arms lt to flip one byte in the middle of the value of
// the first put of chunk idx of key bound for drive target. The drive
// key it hit and the value as sent are kept.
func flipInValue(lt *linkTamper, target int, key string, idx int64) (hit *[]byte, sent *[]byte) {
	hit, sent = new([]byte), new([]byte)
	lt.arm(func(di int, m *wire.Message, body []byte) bool {
		if di != target || *hit != nil || !chunkPut(m, key, idx) {
			return false
		}
		at := bytes.Index(body, m.Value)
		*hit, *sent = m.Key, m.Value
		body[at+len(m.Value)/2] ^= 0x40
		return true
	})
	return hit, sent
}

// TestLinkRewrittenValueIsReadAroundAndRepaired: a value byte flipped on
// one drive's link inside a chunk put is stored by the drive — the MAC
// does not cover it — and then caught like a lying drive's record: a
// streamed read and Verify serve the right bytes from another replica
// or from parity, and Repair puts an opening copy back. A command
// forged on the same link is refused by the drive.
func TestLinkRewrittenValueIsReadAroundAndRepaired(t *testing.T) {
	layouts := []struct {
		name   string
		ec     bool
		drives int
		cfg    func(*Config)
		home   func(h *harness, key string) (liar int, others []int)
	}{
		{"replicated r=2", false, 3, func(c *Config) { c.Replicas = 2 }, func(h *harness, key string) (int, []int) {
			p := h.ctl.placement(key)
			return p[0], p
		}},
		{"EC 4+2", true, 6, ecConfig, func(h *harness, key string) (int, []int) {
			g := h.ctl.ecGroup(key, 6)
			return ecDataHome(g, 1, 4), g
		}},
	}
	for _, sealed := range []bool{true, false} {
		for _, lay := range layouts {
			name := lay.name + "/sealed"
			if !sealed {
				name = lay.name + "/plaintext"
			}
			t.Run(name, func(t *testing.T) {
				lt := &linkTamper{}
				r := newTamperRig(t, lay.drives, sealed, func(c *Config) {
					lay.cfg(c)
					lt.wrap(c)
				})
				const key = "flipped"
				payload := streamPayload(4*streamChunkSize + 77)
				liar, others := lay.home(r.h, key)
				hit, sent := flipInValue(lt, liar, key, 1)
				r.put(key, payload) // the drive accepts the rewritten put
				lt.arm(nil)
				if *hit == nil {
					t.Fatal("the link saw no put of chunk 1")
				}
				stored := r.rawAt(liar, *hit)
				if bytes.Equal(stored, *sent) || len(stored) != len(*sent) {
					t.Fatal("the drive does not hold the rewritten value")
				}

				r.askFirst(liar, others)
				decodes := r.h.ctl.stats.Snapshot().ECDecodes
				r.wantIntact(key, 0, payload)
				if _, err := r.s.Verify(r.ctx, key, 0); err != nil {
					t.Errorf("verify over a rewritten chunk: %v", err)
				}
				if lay.ec && r.h.ctl.stats.Snapshot().ECDecodes == decodes {
					t.Error("the rewritten chunk was served without a decode")
				}

				report, err := r.s.Repair(r.ctx, key)
				if err != nil || report.Restored == 0 {
					t.Fatalf("repair: %+v, %v", report, err)
				}
				set := int64(binary.BigEndian.Uint64((*hit)[len(*hit)-12:]))
				rec, err := r.h.ctl.codec.DecodeChunkInto(r.rawAt(liar, *hit), nil, key, set, 1)
				if err != nil || !bytes.Equal(rec.Payload, payload[streamChunkSize:2*streamChunkSize]) {
					t.Fatalf("chunk 1 on drive %d after repair: %v", liar, err)
				}
				r.h.ctl.objectCache.Clear()
				r.wantIntact(key, 0, payload)

				// The command stays under the MAC: a chunk key or version
				// rewritten on a link is refused.
				for _, field := range []string{"key", "version"} {
					forged := false
					lt.arm(func(_ int, m *wire.Message, body []byte) bool {
						if forged || !chunkPut(m, "forged", 1) {
							return false
						}
						forged = true
						target := m.Key
						if field == "version" {
							target = m.NewVersion
						}
						body[bytes.Index(body, target)+len(target)-1] ^= 1
						return true
					})
					res := r.s.PutStream(r.ctx, "forged", bytes.NewReader(payload), PutOptions{})
					lt.arm(nil)
					if !forged {
						t.Fatalf("%s: the link saw no put of chunk 1", field)
					}
					if res.Err == nil || !strings.Contains(res.Err.Error(), "HMAC_FAILURE") {
						t.Fatalf("%s rewritten on the link: %v, want the drive's HMAC_FAILURE", field, res.Err)
					}
				}
			})
		}
	}
}
