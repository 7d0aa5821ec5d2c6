package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/store"
)

// tamperRig is a controller plus raw access to the chunk records on its
// drives: the untrusted storage layer's view.
type tamperRig struct {
	t   *testing.T
	h   *harness
	s   *Session
	ctx context.Context
}

func newTamperRig(t *testing.T, drives int, sealed bool, mutate func(*Config)) *tamperRig {
	h := newHarness(t, drives, func(c *Config) {
		c.Encrypt = sealed
		if mutate != nil {
			mutate(c)
		}
	})
	return &tamperRig{t: t, h: h, s: h.ctl.Session("w"), ctx: context.Background()}
}

func (r *tamperRig) put(key string, payload []byte) {
	r.t.Helper()
	if res := r.s.PutStream(r.ctx, key, bytes.NewReader(payload), PutOptions{}); res.Err != nil {
		r.t.Fatalf("PutStream(%q): %v", key, res.Err)
	}
}

// rawAt reads the record drive di holds under drive key dk.
func (r *tamperRig) rawAt(di int, dk []byte) []byte {
	r.t.Helper()
	blob, _, err := driveConn(r.t, r.h.ctl, di).Get(r.ctx, dk)
	if err != nil {
		r.t.Fatalf("raw record %q on drive %d: %v", dk, di, err)
	}
	return append([]byte(nil), blob...)
}

// plantAt overwrites the record under drive key dk on drive di and
// drops whatever the controller cached.
func (r *tamperRig) plantAt(di int, dk, blob []byte) {
	r.t.Helper()
	if err := driveConn(r.t, r.h.ctl, di).Put(r.ctx, dk, blob, nil, []byte{9}, true); err != nil {
		r.t.Fatal(err)
	}
	r.h.ctl.objectCache.Clear()
}

// chunkKey is the drive key of chunk record idx of (key, version): the
// record the version's stub names, in its chunk set.
func (h *harness) chunkKey(t *testing.T, key string, version, idx int64) []byte {
	t.Helper()
	for _, di := range h.ctl.placement(key) {
		blob, _, err := driveConn(t, h.ctl, di).Get(context.Background(), store.ObjectKey(key, version))
		if err != nil {
			continue
		}
		if rec, err := h.ctl.codec.DecodeVersion(blob, key, version); err == nil {
			return store.ChunkKey(key, rec.Meta.ChunkSet(), idx)
		}
	}
	t.Fatalf("no placement drive holds the stub of %q v%d", key, version)
	return nil
}

// raw and plant are rawAt and plantAt for the chunk record of (key,
// version, idx).
func (r *tamperRig) raw(di int, key string, version, idx int64) []byte {
	r.t.Helper()
	return r.rawAt(di, r.h.chunkKey(r.t, key, version, idx))
}

func (r *tamperRig) plant(di int, key string, version, idx int64, blob []byte) {
	r.t.Helper()
	r.plantAt(di, r.h.chunkKey(r.t, key, version, idx), blob)
}

// flip damages one payload byte of a stored chunk record.
func (r *tamperRig) flip(di int, key string, version, idx int64) {
	blob := r.raw(di, key, version, idx)
	blob[len(blob)/2] ^= 0x40
	r.plant(di, key, version, idx, blob)
}

// swap exchanges two stored chunk records, each individually authentic.
func (r *tamperRig) swap(di int, keyA string, verA, idxA int64, keyB string, verB, idxB int64) {
	a, b := r.raw(di, keyA, verA, idxA), r.raw(di, keyB, verB, idxB)
	r.plant(di, keyA, verA, idxA, b)
	r.plant(di, keyB, verB, idxB, a)
}

// read streams (key, version) and returns what reached the client and
// how the transfer ended.
func (r *tamperRig) read(key string, version int64) ([]byte, error) {
	r.t.Helper()
	_, send, err := r.s.GetStream(r.ctx, key, GetOptions{Version: version, HasVersion: true})
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	err = send(&buf)
	return buf.Bytes(), err
}

// wantIntact: the read heals over the damage and serves the original.
func (r *tamperRig) wantIntact(key string, version int64, want []byte) {
	r.t.Helper()
	got, err := r.read(key, version)
	if err != nil || !bytes.Equal(got, want) {
		r.t.Fatalf("%q v%d: %d bytes (want %d), %v", key, version, len(got), len(want), err)
	}
}

// wantRefused: the read stops at the misplaced chunk — the transfer
// fails as corrupt and nothing but a prefix of the true object reached
// the client.
func (r *tamperRig) wantRefused(key string, version int64, want []byte) {
	r.t.Helper()
	got, err := r.read(key, version)
	if !errors.Is(err, store.ErrCorrupt) || strings.Contains(err.Error(), "whole-object hash") {
		r.t.Fatalf("%q v%d: misplaced chunk not refused by its chunk id: %v", key, version, err)
	}
	if !bytes.HasPrefix(want, got) {
		r.t.Fatalf("%q v%d: bytes of a misplaced chunk reached the client", key, version)
	}
}

// askFirst primes the latency estimators so the read engine asks drive
// liar before the rest of placement.
func (r *tamperRig) askFirst(liar int, placement []int) {
	for _, di := range placement {
		d := 10 * time.Millisecond
		if di == liar {
			d = time.Microsecond
		}
		for i := 0; i < 8; i++ {
			r.h.ctl.drives.Observe(di, d)
		}
	}
}

// wantVersionRecords: every placement drive holds, under (key,
// version)'s object key, that version's own record with payload want.
func (r *tamperRig) wantVersionRecords(key string, version int64, want string) {
	r.t.Helper()
	for _, di := range r.h.ctl.placement(key) {
		rec, err := r.h.ctl.codec.DecodeRecord(r.rawAt(di, store.ObjectKey(key, version)))
		if err != nil {
			r.t.Errorf("drive %d holds under %q v%d: %v", di, key, version, err)
		} else if rec.Meta.Key != key || rec.Meta.Version != version || string(rec.Payload) != want {
			r.t.Errorf("drive %d holds under %q v%d: %q v%d %q", di, key, version, rec.Meta.Key, rec.Meta.Version, rec.Payload)
		}
	}
}

// TestTamperMatrix drives every way the drive layer can hand back the
// wrong chunk through the controller, sealed and with the plaintext
// baseline: a damaged record is healed from parity or another replica,
// and an authentic record in the wrong place — another position, object
// or version, or an earlier upload of the same version replayed under
// the current one's drive key — is refused by its chunk id and read
// around where another copy is left. Never wrong bytes.
func TestTamperMatrix(t *testing.T) {
	for _, sealed := range []bool{true, false} {
		name := "sealed"
		if !sealed {
			name = "plaintext"
		}
		t.Run(name, func(t *testing.T) {
			t.Run("flipped EC data shard is rebuilt from parity", func(t *testing.T) {
				r := newTamperRig(t, 6, sealed, ecConfig)
				payload := streamPayload(4*streamChunkSize + 77)
				r.put("ec", payload)
				group := r.h.ctl.ecGroup("ec", 6)
				r.flip(ecDataHome(group, 1, 4), "ec", 0, 1)
				r.wantIntact("ec", 0, payload)
				if st := r.h.ctl.stats.Snapshot(); st.ECDecodes == 0 {
					t.Error("flipped shard was served without a decode")
				}
				if _, err := r.s.Verify(r.ctx, "ec", 0); err != nil {
					t.Errorf("verify over a flipped shard: %v", err)
				}
				// Past the parity budget nothing is left to rebuild from.
				r.flip(ecDataHome(group, 0, 4), "ec", 0, 0)
				r.flip(ecDataHome(group, 2, 4), "ec", 0, 2)
				if got, err := r.read("ec", 0); err == nil {
					t.Fatalf("m+1 flipped shards served %d bytes", len(got))
				}
			})

			t.Run("flipped replica chunk is served from another replica", func(t *testing.T) {
				r := newTamperRig(t, 3, sealed, func(c *Config) { c.Replicas = 2 })
				payload := streamPayload(2*streamChunkSize + 99)
				r.put("rep", payload)
				placement := r.h.ctl.placement("rep")
				r.flip(placement[0], "rep", 0, 1)
				r.wantIntact("rep", 0, payload)
				if _, err := r.s.Verify(r.ctx, "rep", 0); err != nil {
					t.Errorf("verify over a flipped replica: %v", err)
				}
				r.flip(placement[1], "rep", 0, 1)
				if got, err := r.read("rep", 0); err == nil {
					t.Fatalf("chunk flipped on every replica served %d bytes", len(got))
				}
			})

			t.Run("flipped inline record is served from another replica", func(t *testing.T) {
				r := newTamperRig(t, 3, sealed, func(c *Config) { c.Replicas = 2 })
				if _, err := r.s.Put(r.ctx, "inline", []byte("an inline value"), PutOptions{}); err != nil {
					t.Fatal(err)
				}
				get := func() ([]byte, error) {
					val, _, err := r.s.Get(r.ctx, "inline", GetOptions{})
					return val, err
				}
				// The record's last byte: payload when plain, tag when sealed.
				flipLast := func(di int) {
					blob := r.rawAt(di, store.ObjectKey("inline", 0))
					blob[len(blob)-1] ^= 1
					r.plantAt(di, store.ObjectKey("inline", 0), blob)
				}
				placement := r.h.ctl.placement("inline")
				flipLast(placement[0])
				if val, err := get(); err != nil || string(val) != "an inline value" {
					t.Fatalf("flipped on one replica: %q, %v", val, err)
				}
				flipLast(placement[1])
				if val, err := get(); err == nil {
					t.Fatalf("flipped on every replica served %q", val)
				}
			})

			t.Run("corrupt policy record is read from another replica", func(t *testing.T) {
				r := newTamperRig(t, 3, sealed, func(c *Config) { c.Replicas = 2 })
				ctl := r.h.ctl
				pid, err := ctl.PutPolicy(r.ctx, "read :- sessionKeyIs(k'4d4e')\nupdate :- sessionKeyIs(k'4d4e')")
				if err != nil {
					t.Fatal(err)
				}
				foreign, err := ctl.PutPolicy(r.ctx, "read :- sessionKeyIs(k'07e4')")
				if err != nil {
					t.Fatal(err)
				}
				owner, stranger := ctl.Session("4d4e"), ctl.Session("07e4")
				if _, err := owner.Put(r.ctx, "guarded", []byte("v"), PutOptions{PolicyID: pid}); err != nil {
					t.Fatal(err)
				}
				// get reads with nothing of the policy left in the enclave.
				get := func(s *Session) error {
					ctl.policyCache.Clear()
					ctl.residualCache.Clear()
					_, _, err := s.Get(r.ctx, "guarded", GetOptions{})
					return err
				}
				placement := ctl.placement(pid)
				flipped := r.rawAt(placement[0], store.PolicyKey(pid))
				flipped[len(flipped)/2] ^= 0x40
				authentic := r.rawAt(ctl.placement(foreign)[0], store.PolicyKey(foreign))
				for name, blob := range map[string][]byte{"flipped": flipped, "another policy's": authentic} {
					r.plantAt(placement[0], store.PolicyKey(pid), blob)
					if err := get(owner); err != nil {
						t.Fatalf("%s record on one replica: %v", name, err)
					}
					if err := get(stranger); !errors.Is(err, ErrDenied) {
						t.Fatalf("%s record on one replica changed the verdict: %v", name, err)
					}
				}
				// No intact copy left: the read fails, it is not waved through.
				r.plantAt(placement[1], store.PolicyKey(pid), flipped)
				if err := get(owner); err == nil || errors.Is(err, ErrDenied) {
					t.Fatalf("policy corrupt on every replica: %v", err)
				}
			})

			t.Run("chunks swapped between positions, versions and objects", func(t *testing.T) {
				r := newTamperRig(t, 1, sealed, nil)
				v0, v1 := streamPayload(2*streamChunkSize), streamPayload(2*streamChunkSize+1)
				other := streamPayload(2*streamChunkSize + 2)
				r.put("a", v0)
				r.put("a", v1)
				r.put("b", other)

				r.swap(0, "a", 1, 0, "a", 1, 1) // index i ↔ j
				r.wantRefused("a", 1, v1)
				r.swap(0, "a", 1, 0, "a", 1, 1)
				r.wantIntact("a", 1, v1)

				r.swap(0, "a", 0, 0, "a", 1, 0) // version 0 ↔ 1
				r.wantRefused("a", 0, v0)
				r.wantRefused("a", 1, v1)
				r.swap(0, "a", 0, 0, "a", 1, 0)

				r.swap(0, "a", 1, 1, "b", 0, 1) // object a ↔ b
				r.wantRefused("a", 1, v1)
				r.wantRefused("b", 0, other)
				r.swap(0, "a", 1, 1, "b", 0, 1)

				r.wantIntact("a", 0, v0)
				r.wantIntact("a", 1, v1)
				r.wantIntact("b", 0, other)
			})

			t.Run("swapped EC shard is rebuilt from parity", func(t *testing.T) {
				r := newTamperRig(t, 6, sealed, ecConfig)
				payload := streamPayload(4 * streamChunkSize)
				r.put("ec", payload)
				group := r.h.ctl.ecGroup("ec", 6)
				// A data shard's record under a parity shard's key, on
				// the parity shard's home.
				parity := store.ParityIndex(0, 2, 0)
				r.plant(ecShardDrive(group, 4, 0), "ec", 0, parity, r.raw(ecDataHome(group, 0, 4), "ec", 0, 0))
				r.plant(ecDataHome(group, 0, 4), "ec", 0, 0, r.raw(ecDataHome(group, 1, 4), "ec", 0, 1))
				r.wantIntact("ec", 0, payload)
				if st := r.h.ctl.stats.Snapshot(); st.ECDecodes == 0 {
					t.Error("transplanted shard was served without a decode")
				}
			})

			// replayRig streams "again" twice at version 0, deleting it in
			// between, and returns the first upload's chunk 0 record: sealed
			// for the same object, version and index as the second's, but
			// named by the first upload.
			replayRig := func(t *testing.T) (r *tamperRig, placement []int, stale, second []byte) {
				// No hedge timer: the replica asked first answers before
				// another is asked.
				r = newTamperRig(t, 3, sealed, func(c *Config) { c.Replicas = 2; c.hedgeDelay = time.Minute })
				first := streamPayload(2*streamChunkSize + 5)
				second = streamPayload(2*streamChunkSize + 5)
				second[3] ^= 0xff // same size, another object
				r.put("again", first)
				placement = r.h.ctl.placement("again")
				stale = r.raw(placement[0], "again", 0, 0)
				if err := r.s.Delete(r.ctx, "again", DeleteOptions{}); err != nil {
					t.Fatal(err)
				}
				r.put("again", second)
				r.wantIntact("again", 0, second)
				return r, placement, stale, second
			}
			t.Run("authentic chunk of an earlier upload on the replica asked first", func(t *testing.T) {
				r, placement, stale, second := replayRig(t)
				liar := placement[0]
				r.plant(liar, "again", 0, 0, stale)
				r.askFirst(liar, placement)
				r.wantIntact("again", 0, second)
				r.askFirst(liar, placement)
				if _, err := r.s.Verify(r.ctx, "again", 0); err != nil {
					t.Errorf("verify over a replayed chunk on one replica: %v", err)
				}
			})
			t.Run("authentic chunk of an earlier upload of the same version", func(t *testing.T) {
				r, placement, stale, second := replayRig(t)
				for _, di := range placement {
					r.plant(di, "again", 0, 0, stale)
				}
				r.wantRefused("again", 0, second)
				if _, err := r.s.Verify(r.ctx, "again", 0); !errors.Is(err, store.ErrCorrupt) {
					t.Errorf("verify over a replayed chunk on every replica: %v", err)
				}
			})
			// A stub written before uploads drew an id names its chunks
			// by version, so an earlier upload's chunk carries the same
			// chunk id and opens: only the whole-object hash refuses it.
			t.Run("parent-format stub over a replayed chunk of an earlier upload", func(t *testing.T) {
				r := newTamperRig(t, 3, sealed, func(c *Config) { c.Replicas = 2 })
				first := streamPayload(2*streamChunkSize + 5)
				second := streamPayload(2*streamChunkSize + 5)
				second[3] ^= 0xff
				r.put("again", first)
				r.parentFormat("again", false)
				placement := r.h.ctl.placement("again")
				stale := r.raw(placement[0], "again", 0, 0)
				if err := r.s.Delete(r.ctx, "again", DeleteOptions{}); err != nil {
					t.Fatal(err)
				}
				r.put("again", second)
				r.parentFormat("again", false)
				r.wantIntact("again", 0, second)
				for _, di := range placement {
					r.plant(di, "again", 0, 0, stale)
				}
				if _, err := r.read("again", 0); !errors.Is(err, store.ErrCorrupt) || !strings.Contains(err.Error(), "whole-object hash") {
					t.Errorf("read over a replayed parent-format chunk: %v, want the whole-object hash refusal", err)
				}
				if _, err := r.s.Verify(r.ctx, "again", 0); !errors.Is(err, store.ErrCorrupt) {
					t.Errorf("verify over a replayed parent-format chunk: %v", err)
				}
			})

			// An authentic version record in the wrong place: the inline
			// twin of a swapped chunk. transplantRig stores "secret" (which
			// the reader's session is denied), the reader's own "mine", and
			// two versions of "hist".
			transplantRig := func(t *testing.T) (*tamperRig, *Session) {
				// No hedge timer: the replica asked first answers before
				// another is asked, so what follows a refusal is the refusal's.
				r := newTamperRig(t, 3, sealed, func(c *Config) { c.Replicas = 3; c.hedgeDelay = time.Minute })
				private, err := r.h.ctl.PutPolicy(r.ctx, "read :- sessionKeyIs(k'a11ce0')\nupdate :- sessionKeyIs(k'a11ce0')")
				if err != nil {
					t.Fatal(err)
				}
				eve := r.h.ctl.Session("e0e0")
				for _, put := range []struct {
					s        *Session
					key, val string
					opts     PutOptions
				}{
					{r.h.ctl.Session("a11ce0"), "secret", "TOP SECRET", PutOptions{PolicyID: private}},
					{eve, "mine", "eve's own", PutOptions{}},
					{eve, "hist", "old", PutOptions{}},
					{eve, "hist", "new", PutOptions{}},
				} {
					if _, err := put.s.Put(r.ctx, put.key, []byte(put.val), put.opts); err != nil {
						t.Fatal(err)
					}
				}
				return r, eve
			}
			transplants := []struct {
				name, key   string
				version     int64
				fromKey     string
				fromVersion int64
				want        string
			}{
				{"another object's record under this key", "mine", 0, "secret", 0, "eve's own"},
				{"an earlier version's record under a later version's key", "hist", 1, "hist", 0, "new"},
			}
			for _, tp := range transplants {
				t.Run(tp.name+" on the replica asked first", func(t *testing.T) {
					r, eve := transplantRig(t)
					placement := r.h.ctl.placement(tp.key)
					liar := placement[0]
					r.plantAt(liar, store.ObjectKey(tp.key, tp.version), r.rawAt(liar, store.ObjectKey(tp.fromKey, tp.fromVersion)))
					for i := 0; i < 20; i++ {
						r.h.ctl.objectCache.Clear()
						r.askFirst(liar, placement)
						val, meta, err := eve.Get(r.ctx, tp.key, GetOptions{})
						if err != nil {
							t.Fatalf("read %d of %q: %v", i, tp.key, err)
						}
						if string(val) != tp.want || meta.Key != tp.key || meta.Version != tp.version {
							t.Fatalf("read %d of %q v%d: %q v%d %q", i, tp.key, tp.version, meta.Key, meta.Version, val)
						}
						if !r.h.ctl.drives.Failing(liar) {
							t.Fatalf("read %d: the drive serving the transplant was not demoted", i)
						}
					}
					// On every replica nothing is left to fail over to.
					for _, di := range placement {
						r.plantAt(di, store.ObjectKey(tp.key, tp.version), r.rawAt(di, store.ObjectKey(tp.fromKey, tp.fromVersion)))
					}
					if val, _, err := eve.Get(r.ctx, tp.key, GetOptions{}); !errors.Is(err, store.ErrCorrupt) {
						t.Fatalf("transplant on every replica served %q, %v", val, err)
					}
					// Which is what a gaining shard sees of a source that
					// pushed the transplant.
					r.h.ctl.metaCache.Clear()
					manifest := &Manifest{Entries: []ManifestEntry{{Key: tp.key, Version: tp.version}}}
					if err := r.h.ctl.VerifyImport(r.ctx, manifest); !errors.Is(err, store.ErrCorrupt) {
						t.Fatalf("import of a transplanted record verified: %v", err)
					}
				})
			}
			// An invented head: the true version under another stored
			// policy, one that grants eve the read the object's own denies.
			// The version record it names carries the object's policy,
			// authenticated: only the sealing codec can vouch for that.
			if sealed {
				t.Run("an invented head naming another policy on the replica asked first", func(t *testing.T) {
					r, eve := transplantRig(t)
					ctl := r.h.ctl
					lax, err := ctl.PutPolicy(r.ctx, "read :- sessionKeyIs(k'e0e0')")
					if err != nil {
						t.Fatal(err)
					}
					placement := ctl.placement("secret")
					liar := placement[0]
					head := new(store.Meta)
					if err := ctl.codec.DecodeMeta(r.rawAt(liar, store.MetaKey("secret")), "secret", head); err != nil {
						t.Fatal(err)
					}
					head.PolicyID = lax
					r.plantAt(liar, store.MetaKey("secret"), ctl.codec.EncodeMeta(head))
					for i := 0; i < 20; i++ {
						ctl.metaCache.Clear()
						r.askFirst(liar, placement)
						if val, _, err := eve.Get(r.ctx, "secret", GetOptions{}); err == nil || val != nil {
							t.Fatalf("read %d: a denied session read %q under an invented head (%v)", i, val, err)
						}
						if m, ok := ctl.metaCache.Get("secret"); ok && m.PolicyID == lax {
							t.Fatalf("read %d: the invented head stayed cached", i)
						}
					}
				})
			}
			for slot := 0; slot < 3; slot++ {
				for _, heal := range []string{"repair", "deep sweep"} {
					t.Run(fmt.Sprintf("%s rewrites a transplant in placement slot %d from a healthy copy", heal, slot), func(t *testing.T) {
						r, eve := transplantRig(t)
						placement := r.h.ctl.placement("mine")
						liar, lost := placement[slot], placement[(slot+1)%3]
						dk := store.ObjectKey("mine", 0)
						r.plantAt(liar, dk, r.rawAt(liar, store.ObjectKey("secret", 0)))
						if err := driveConn(t, r.h.ctl, lost).Delete(r.ctx, dk, nil, true); err != nil {
							t.Fatal(err)
						}
						restored := 0
						if heal == "repair" {
							report, err := eve.Repair(r.ctx, "mine")
							if err != nil {
								t.Fatal(err)
							}
							restored = report.Restored
						} else {
							report, err := r.h.ctl.SweepTick(r.ctx)
							if err != nil || !report.Deep {
								t.Fatalf("sweep tick: %+v, %v", report, err)
							}
							restored = report.RestoredRecords
						}
						if restored != 2 {
							t.Errorf("restored %d records, want 2 (the liar's and the lost one)", restored)
						}
						r.wantVersionRecords("mine", 0, "eve's own")
					})
				}
			}
		})
	}
}

// parentFormat rewrites (key, 0) on every drive as an upload wrote it
// before uploads drew an id: each chunk record named by the version,
// under its drive key and in its chunk id, and a stub and head with no
// upload id. hashed also gives each chunk record the content hash
// sealed chunks carried before they dropped it.
func (r *tamperRig) parentFormat(key string, hashed bool) {
	r.t.Helper()
	ctl := r.h.ctl
	placement := ctl.placement(key)
	stub, err := ctl.codec.DecodeVersion(r.rawAt(placement[0], store.ObjectKey(key, 0)), key, 0)
	if err != nil {
		r.t.Fatal(err)
	}
	m := stub.Meta
	if m.Upload == 0 {
		r.t.Fatalf("%q v0 was not named by an upload", key)
	}
	l, err := ctl.layoutOf(key, m.ECK, m.ECM)
	if err != nil {
		r.t.Fatal(err)
	}
	for t := int64(0); t*int64(l.k) < m.Chunks; t++ {
		for _, sh := range l.shards(t, m.Chunks) {
			for _, di := range l.homes(sh.Idx) {
				dk := store.ChunkKey(key, m.Upload, sh.Idx)
				rec, err := ctl.codec.DecodeChunkInto(r.rawAt(di, dk), nil, key, m.Upload, sh.Idx)
				if err != nil {
					r.t.Fatal(err)
				}
				if rec.Meta.ContentHash != ([32]byte{}) && ctl.codec.Enabled() {
					r.t.Fatalf("sealed chunk %d of %q carries a content hash", sh.Idx, key)
				}
				rec.Meta.Key, rec.Meta.Version = store.ChunkID(key, 0, sh.Idx), 0
				if hashed {
					rec.Meta.ContentHash = store.HashContent(rec.Payload)
				}
				blob, err := ctl.codec.EncodeRecord(rec)
				if err != nil {
					r.t.Fatal(err)
				}
				cl := driveConn(r.t, ctl, di)
				if err := cl.Put(r.ctx, store.ChunkKey(key, 0, sh.Idx), blob, nil, encodeVer(0), true); err != nil {
					r.t.Fatal(err)
				}
				if err := cl.Delete(r.ctx, dk, nil, true); err != nil {
					r.t.Fatal(err)
				}
			}
		}
	}
	m.Upload = 0
	blob, err := ctl.codec.EncodeRecord(&store.Record{Meta: m})
	if err != nil {
		r.t.Fatal(err)
	}
	for _, di := range placement {
		cl := driveConn(r.t, ctl, di)
		if err := cl.Put(r.ctx, store.ObjectKey(key, 0), blob, nil, encodeVer(0), true); err != nil {
			r.t.Fatal(err)
		}
		if err := cl.Put(r.ctx, store.MetaKey(key), ctl.codec.EncodeMeta(&m), nil, encodeVer(0), true); err != nil {
			r.t.Fatal(err)
		}
	}
	ctl.objectCache.Clear()
	ctl.metaCache.Clear()
}

// TestChunkRecordsOfTheParentFormatReadBack: objects streamed before
// uploads drew an id — chunk records named by the version, stubs with
// no id, and, older still, sealed chunks with a content hash — stream,
// verify, repair with nothing to restore and delete like the rest.
func TestChunkRecordsOfTheParentFormatReadBack(t *testing.T) {
	for _, hashed := range []bool{false, true} {
		t.Run(fmt.Sprintf("hashed=%v", hashed), func(t *testing.T) {
			r := newTamperRig(t, 6, true, ecConfig)
			ec, rep := streamPayload(4*streamChunkSize+9), streamPayload(streamChunkSize+9)
			r.put("ec", ec)
			r.put("rep", rep)
			r.parentFormat("ec", hashed)
			r.parentFormat("rep", hashed)
			r.wantIntact("ec", 0, ec)
			r.wantIntact("rep", 0, rep)
			for _, key := range []string{"ec", "rep"} {
				if _, err := r.s.Verify(r.ctx, key, 0); err != nil {
					t.Errorf("verify %q: %v", key, err)
				}
				if report, err := r.s.Repair(r.ctx, key); err != nil || report.Restored != 0 {
					t.Errorf("repair %q rewrote healthy parent-format records: %+v %v", key, report, err)
				}
			}
			if st := r.h.ctl.stats.Snapshot(); st.ECDecodes != 0 {
				t.Errorf("parent-format shards were decoded around: %d", st.ECDecodes)
			}
			for _, key := range []string{"ec", "rep"} {
				if err := r.s.Delete(r.ctx, key, DeleteOptions{}); err != nil {
					t.Fatal(err)
				}
				start, end := store.ChunkKeyRange(key)
				for di := range r.h.ctl.drives.Len() {
					if keys, err := driveKeys(t, r.h.ctl, di, start, end); err != nil || len(keys) != 0 {
						t.Errorf("drive %d holds %d chunk records of %q after delete (%v)", di, len(keys), key, err)
					}
				}
			}
		})
	}
}

// TestVerifyRehashesWhatGetTrusts: a streamed GET of an upload-named
// stub checks the object's size, not its hash, so a stub re-sealed
// with a wrong ContentHash by the codec's own key serves its bytes —
// and Verify and a handoff's VerifyImport, which recompute the hash
// over the chunks, refuse it.
func TestVerifyRehashesWhatGetTrusts(t *testing.T) {
	for _, ec := range []bool{false, true} {
		t.Run(fmt.Sprintf("ec=%v", ec), func(t *testing.T) {
			r := newTamperRig(t, 6, true, func(c *Config) {
				ecConfig(c)
				c.EC = ec
			})
			ctl := r.h.ctl
			payload := streamPayload(4*streamChunkSize + 9)
			r.put("obj", payload)
			placement := ctl.placement("obj")
			stub, err := ctl.codec.DecodeVersion(r.rawAt(placement[0], store.ObjectKey("obj", 0)), "obj", 0)
			if err != nil {
				t.Fatal(err)
			}
			m := stub.Meta
			if m.Upload == 0 || (m.ECK != 0) != ec {
				t.Fatalf("stub: upload %d, class %q", m.Upload, m.StorageClass())
			}
			m.ContentHash[0] ^= 1
			blob, err := ctl.codec.EncodeRecord(&store.Record{Meta: m})
			if err != nil {
				t.Fatal(err)
			}
			for _, di := range placement {
				r.plantAt(di, store.ObjectKey("obj", 0), blob)
				r.plantAt(di, store.MetaKey("obj"), ctl.codec.EncodeMeta(&m))
			}
			ctl.metaCache.Clear()
			r.wantIntact("obj", 0, payload)
			if _, err := r.s.Verify(r.ctx, "obj", 0); !errors.Is(err, store.ErrCorrupt) {
				t.Errorf("Verify of a stub with a wrong hash: %v", err)
			}
			manifest := &Manifest{Entries: []ManifestEntry{{Key: "obj", Version: 0}}}
			if err := ctl.VerifyImport(r.ctx, manifest); !errors.Is(err, store.ErrCorrupt) {
				t.Errorf("VerifyImport of a stub with a wrong hash: %v", err)
			}
		})
	}
}

// TestRefusedChunkDemotesItsDrive: a chunk record the drive asked first
// serves damaged is refused, the stream is served from another copy — a
// replica, or parity — and the drive is failing afterwards. A refusal is
// a failed read whichever record it was, never a latency sample.
func TestRefusedChunkDemotesItsDrive(t *testing.T) {
	for _, shape := range []struct {
		name   string
		drives int
		mutate func(*Config)
	}{
		{"k=1 over 3 replicas", 3, func(c *Config) { c.Replicas = 3; c.hedgeDelay = time.Minute }},
		{"ec:4+2", 6, ecConfig},
	} {
		t.Run(shape.name, func(t *testing.T) {
			r := newTamperRig(t, shape.drives, true, shape.mutate)
			payload := streamPayload(2*streamChunkSize + 99)
			r.put("obj", payload)
			placement := r.h.ctl.placement("obj")
			liar := placement[0]
			if shape.drives == 6 {
				liar = ecDataHome(r.h.ctl.ecGroup("obj", 6), 0, 4)
			}
			r.flip(liar, "obj", 0, 0)
			r.askFirst(liar, placement)
			r.wantIntact("obj", 0, payload)
			if !r.h.ctl.drives.Failing(liar) {
				t.Error("the drive that served a refused chunk is not failing")
			}
		})
	}
}
