package core

import (
	"bytes"
	"context"
	"errors"
	"io"
	"testing"
	"testing/iotest"

	"repro/internal/store"
)

// TestStreamAbortLeavesNoOrphans drives a streamed upload of each
// storage class into every way it can fail after chunk records have
// landed, and requires the one abort sweep to leave nothing behind: no
// record in the key's chunk range on any live drive — the chunk that
// was in flight when the upload failed included — and no streamed
// version published.
func TestStreamAbortLeavesNoOrphans(t *testing.T) {
	const key = "doomed"
	classes := []struct {
		name   string
		drives int
		chunks int // body size; the cap row allows one chunk less
		cfg    func(*Config)
		// victim names the drive a kill row takes down: a home of the
		// chunk record whose put must fail.
		victim func(c *Controller, parity bool) int
	}{
		{"replicated", 3, 4, func(c *Config) { c.Replicas = 3 },
			func(c *Controller, _ bool) int { return c.placement(key)[2] }},
		{"ec", 6, 6, ecConfig,
			func(c *Controller, parity bool) int {
				group := c.ecGroup(key, 6)
				if parity {
					return ecShardDrive(group, 4, 0) // first parity shard of stripe 0
				}
				return ecDataHome(group, 2, 4)
			}},
	}
	type abort struct {
		name     string
		parity   bool                           // needs a parity layout
		cut      int                            // bytes of the body before the fault, in chunks (+1 byte)
		existing bool                           // the key holds an inline v0 before the upload
		capped   bool                           // maxStreamBytes is one chunk short of the body
		kill     bool                           // the fault is the victim drive dying
		fault    func(t *testing.T, s *Session) // a racing operation, run where the kill would strike
		bodyErr  error                          // the body reader fails with it past the cut
		code     ErrorCode
		winner   string // the inline value the key must hold afterwards
		winnerV  int64
	}
	aborts := []abort{
		{name: "drive dies while a chunk is in flight", cut: 2, kill: true},
		{name: "drive dies during a parity flush", parity: true, cut: 3, kill: true},
		{name: "body reader errors", cut: 2, bodyErr: errors.New("client went away")},
		{name: "MaxStreamBytes exceeded", capped: true, code: CodeTooLarge},
		{name: "commit loses the CAS to a buffered writer", cut: 2, existing: true,
			fault: func(t *testing.T, s *Session) {
				if _, err := s.Put(context.Background(), key, []byte("winner"), PutOptions{}); err != nil {
					t.Errorf("racing put: %v", err)
				}
			}, code: CodeVersionConflict, winner: "winner", winnerV: 1},
		{name: "delete and recreate at the planned version", cut: 2, existing: true,
			fault: func(t *testing.T, s *Session) {
				ctx := context.Background()
				if err := s.Delete(ctx, key, DeleteOptions{}); err != nil {
					t.Errorf("racing delete: %v", err)
				}
				if _, err := s.Put(ctx, key, []byte("impostor"), PutOptions{}); err != nil {
					t.Errorf("racing recreate: %v", err)
				}
			}, code: CodeVersionConflict, winner: "impostor", winnerV: 0},
	}
	for _, class := range classes {
		for _, ab := range aborts {
			if ab.parity && class.name != "ec" {
				continue
			}
			t.Run(class.name+"/"+ab.name, func(t *testing.T) {
				h := newKillableHarness(t, class.drives, func(c *Config) {
					class.cfg(c)
					if ab.capped {
						c.maxStreamBytes = int64(class.chunks-1) * streamChunkSize
					}
				})
				s := h.ctl.Session("w")
				ctx := context.Background()
				if ab.existing {
					if _, err := s.Put(ctx, key, []byte("orig"), PutOptions{}); err != nil {
						t.Fatal(err)
					}
				}
				payload := streamPayload(class.chunks * streamChunkSize)
				var body io.Reader = bytes.NewReader(payload)
				dead := -1
				if !ab.capped {
					// The fault strikes on the first read past the cut: the
					// chunks before it are on the drives, the one the read
					// belongs to goes out next.
					cut := ab.cut*streamChunkSize + 1
					var tail io.Reader = bytes.NewReader(payload[cut:])
					if ab.bodyErr != nil {
						tail = iotest.ErrReader(ab.bodyErr)
					}
					body = io.MultiReader(bytes.NewReader(payload[:cut]), &hookReader{r: tail, hook: func() {
						switch {
						case ab.kill:
							dead = class.victim(h.ctl, ab.parity)
							h.kill(dead)
						case ab.fault != nil:
							ab.fault(t, s)
						}
					}})
				}

				res := s.PutStream(ctx, key, body, PutOptions{})
				if res.Err == nil || (ab.code != "" && res.Err.Code != ab.code) {
					t.Fatalf("upload: %+v, want code %q", res, ab.code)
				}
				t.Logf("upload failed with: %v", res.Err)
				cstart, cend := store.ChunkKeyRange(key)
				for di := range h.drives {
					if di == dead {
						continue
					}
					keys, err := driveKeys(t, h.ctl, di, cstart, cend)
					if err != nil {
						t.Fatal(err)
					}
					if len(keys) != 0 {
						t.Errorf("drive %d holds %d orphan chunk records", di, len(keys))
					}
					m, ok := h.driveMeta(t, di, key)
					if ok && (m.Chunks != 0 || ab.winner == "") {
						t.Errorf("drive %d: the aborted upload published %+v", di, m)
					}
				}
				if ab.winner != "" {
					val, meta, err := s.Get(ctx, key, GetOptions{})
					if err != nil || string(val) != ab.winner || meta.Version != ab.winnerV {
						t.Errorf("after the abort: %q v%d %v, want %q v%d", val, meta.Version, err, ab.winner, ab.winnerV)
					}
				}
			})
		}
	}
}
