package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/kinetic/wire"
	"repro/internal/store"
)

// streamPayload builds a deterministic pseudo-random payload.
func streamPayload(n int) []byte {
	out := make([]byte, n)
	rand.New(rand.NewSource(int64(n))).Read(out)
	return out
}

// readStream drains a session streaming read into memory.
func readStream(t *testing.T, s *Session, key string, opts GetOptions) ([]byte, *store.Meta) {
	t.Helper()
	meta, send, err := s.GetStream(context.Background(), key, opts)
	if err != nil {
		t.Fatalf("GetStream(%q): %v", key, err)
	}
	var buf bytes.Buffer
	if err := send(&buf); err != nil {
		t.Fatalf("stream %q: %v", key, err)
	}
	return buf.Bytes(), meta
}

func TestStreamLargeObjectRoundTrip(t *testing.T) {
	h := newHarness(t, 3, func(c *Config) { c.Replicas = 2 })
	s := h.ctl.Session("w")
	ctx := context.Background()

	// 3.5 chunks worth of payload: exercises full and partial chunks.
	payload := streamPayload(3*streamChunkSize + streamChunkSize/2)
	res := s.PutStream(ctx, "big", bytes.NewReader(payload), PutOptions{})
	if res.Err != nil {
		t.Fatalf("PutStream: %v", res.Err)
	}
	if res.Version != 0 {
		t.Fatalf("version %d, want 0", res.Version)
	}

	got, meta := readStream(t, s, "big", GetOptions{})
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload mismatch: %d bytes vs %d", len(got), len(payload))
	}
	if meta.Chunks != 4 || meta.Size != int64(len(payload)) {
		t.Errorf("meta: chunks=%d size=%d", meta.Chunks, meta.Size)
	}
	// The buffered read path refuses (it cannot hold the object) with
	// the dedicated streamed-object error rather than serving partial
	// data or claiming the *request* was too large.
	if _, _, err := s.Get(ctx, "big", GetOptions{}); !errors.Is(err, ErrStreamedObject) {
		t.Errorf("buffered get of chunked object: %v", err)
	}
	// Verification recomputes the whole-object hash across chunks.
	if _, err := s.Verify(ctx, "big", 0); err != nil {
		t.Errorf("verify streamed object: %v", err)
	}
	// The drive-cost model was charged per chunk; cheap sanity only.
	if st := h.ctl.stats.Snapshot(); st.Streams == 0 {
		t.Error("Streams counter not incremented")
	}
}

func TestStreamSmallObjectLandsInline(t *testing.T) {
	h := newHarness(t, 1, nil)
	s := h.ctl.Session("w")
	ctx := context.Background()

	payload := streamPayload(10 << 10)
	res := s.PutStream(ctx, "small", bytes.NewReader(payload), PutOptions{})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	// Inline: the buffered v1 read path serves it unchanged.
	val, meta, err := s.Get(ctx, "small", GetOptions{})
	if err != nil || !bytes.Equal(val, payload) {
		t.Fatalf("buffered get: %v", err)
	}
	if meta.Chunks != 0 {
		t.Errorf("small object stored chunked: %d", meta.Chunks)
	}
	// And the streaming path serves the same bytes.
	got, _ := readStream(t, s, "small", GetOptions{})
	if !bytes.Equal(got, payload) {
		t.Error("streaming read of inline object diverges")
	}
}

func TestStreamVersionsHistoryAndDelete(t *testing.T) {
	h := newHarness(t, 2, func(c *Config) { c.Replicas = 2 })
	s := h.ctl.Session("w")
	ctx := context.Background()

	v0 := streamPayload(2*streamChunkSize + 17)
	v1 := streamPayload(streamChunkSize + 1)
	if res := s.PutStream(ctx, "hist", bytes.NewReader(v0), PutOptions{}); res.Err != nil {
		t.Fatal(res.Err)
	}
	if res := s.PutStream(ctx, "hist", bytes.NewReader(v1), PutOptions{}); res.Err != nil {
		t.Fatal(res.Err)
	}
	vers, err := s.ListVersions(ctx, "hist", nil)
	if err != nil || len(vers) != 2 {
		t.Fatalf("versions: %v %v", vers, err)
	}
	// Historic streamed versions stay readable through their stubs.
	got, meta := readStream(t, s, "hist", GetOptions{Version: 0, HasVersion: true})
	if !bytes.Equal(got, v0) || meta.Version != 0 {
		t.Fatalf("historic version mismatch (%d bytes, v%d)", len(got), meta.Version)
	}
	got, _ = readStream(t, s, "hist", GetOptions{})
	if !bytes.Equal(got, v1) {
		t.Fatal("head version mismatch")
	}

	// Delete destroys every chunk record on every replica.
	ver, err := h.ctl.deleteObject(ctx, "w", "hist", DeleteOptions{})
	if err != nil || ver != 1 {
		t.Fatalf("delete: v=%d err=%v", ver, err)
	}
	for di := range h.ctl.drives.Len() {
		cstart, cend := store.ChunkKeyRange("hist")
		keys, err := driveKeys(t, h.ctl, di, cstart, cend)
		if err != nil {
			t.Fatal(err)
		}
		if len(keys) != 0 {
			t.Errorf("drive %d retains %d chunk records after delete", di, len(keys))
		}
	}
	if _, _, err := s.GetStream(ctx, "hist", GetOptions{}); !errors.Is(err, ErrNotFound) {
		t.Errorf("get after delete: %v", err)
	}
}

func TestStreamRepairRestoresChunks(t *testing.T) {
	h := newHarness(t, 3, func(c *Config) { c.Replicas = 3 })
	s := h.ctl.Session("w")
	ctx := context.Background()

	payload := streamPayload(2*streamChunkSize + 99)
	if res := s.PutStream(ctx, "r", bytes.NewReader(payload), PutOptions{}); res.Err != nil {
		t.Fatal(res.Err)
	}
	// Lose one replica wholesale (simulated drive replacement).
	victim := store.Placement("r", 3, 3)[1]
	if err := eraseDrive(h, victim); err != nil {
		t.Fatal(err)
	}

	report, err := s.Repair(ctx, "r")
	if err != nil {
		t.Fatalf("repair: %v", err)
	}
	// Restored on the victim: 1 stub + 3 chunks + 1 meta.
	if report.Restored != 5 {
		t.Errorf("restored %d records, want 5", report.Restored)
	}
	// Clear caches and read through the repaired replica set.
	h.ctl.metaCache.Clear()
	h.ctl.objectCache.Clear()
	got, _ := readStream(t, s, "r", GetOptions{})
	if !bytes.Equal(got, payload) {
		t.Error("payload diverges after repair")
	}
	// Idempotent.
	if report, err := s.Repair(ctx, "r"); err != nil || report.Restored != 0 {
		t.Errorf("second repair: %+v %v", report, err)
	}
}

func TestStreamChunkTransplantDetected(t *testing.T) {
	h := newHarness(t, 1, nil)
	s := h.ctl.Session("w")
	ctx := context.Background()

	payload := streamPayload(2 * streamChunkSize)
	if res := s.PutStream(ctx, "swap", bytes.NewReader(payload), PutOptions{}); res.Err != nil {
		t.Fatal(res.Err)
	}
	// Swap the two chunk records on the drive: each is individually
	// authentic, but bound to the wrong position.
	cl := driveConn(t, h.ctl, 0)
	k0, k1 := h.chunkKey(t, "swap", 0, 0), h.chunkKey(t, "swap", 0, 1)
	b0, _, err := cl.Get(ctx, k0)
	if err != nil {
		t.Fatal(err)
	}
	b1, _, err := cl.Get(ctx, k1)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Put(ctx, k0, b1, nil, []byte{9}, true); err != nil {
		t.Fatal(err)
	}
	if err := cl.Put(ctx, k1, b0, nil, []byte{9}, true); err != nil {
		t.Fatal(err)
	}
	h.ctl.objectCache.Clear()

	_, send, err := s.GetStream(ctx, "swap", GetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := send(&bytes.Buffer{}); !errors.Is(err, store.ErrCorrupt) {
		t.Errorf("transplanted chunks served: %v", err)
	}
}

func TestStreamExactChunkBoundaryStaysInline(t *testing.T) {
	h := newHarness(t, 1, nil)
	s := h.ctl.Session("w")
	ctx := context.Background()

	// Exactly the inline limit: must land as a single inline record,
	// readable through the buffered path like any Put.
	payload := streamPayload(streamChunkSize)
	if res := s.PutStream(ctx, "edge", bytes.NewReader(payload), PutOptions{}); res.Err != nil {
		t.Fatal(res.Err)
	}
	val, meta, err := s.Get(ctx, "edge", GetOptions{})
	if err != nil || !bytes.Equal(val, payload) {
		t.Fatalf("buffered get of boundary object: %v", err)
	}
	if meta.Chunks != 0 {
		t.Fatalf("boundary object stored as %d chunks, want inline", meta.Chunks)
	}
	// One byte more must chunk.
	payload2 := streamPayload(streamChunkSize + 1)
	if res := s.PutStream(ctx, "edge", bytes.NewReader(payload2), PutOptions{}); res.Err != nil {
		t.Fatal(res.Err)
	}
	got, meta2 := readStream(t, s, "edge", GetOptions{})
	if !bytes.Equal(got, payload2) || meta2.Chunks != 2 {
		t.Fatalf("chunked round trip: %d bytes, %d chunks", len(got), meta2.Chunks)
	}
}

// hookReader fires a callback before its first Read — a probe for
// racing a mutation into the middle of a streamed upload.
type hookReader struct {
	r    io.Reader
	once sync.Once
	hook func()
}

func (h *hookReader) Read(p []byte) (int, error) {
	h.once.Do(h.hook)
	return h.r.Read(p)
}

func TestStreamLosesRaceToBufferedWriter(t *testing.T) {
	h := newHarness(t, 1, nil)
	s := h.ctl.Session("w")
	ctx := context.Background()

	if _, err := s.Put(ctx, "raced", []byte("orig"), PutOptions{}); err != nil {
		t.Fatal(err)
	}
	// The stream plans its version, uploads its first chunk, and then —
	// via the hook, while the upload is in flight and no commits lock is
	// held — a buffered writer commits the same key. The stream's final
	// CAS commit must lose, sweep its chunks, and report the conflict.
	payload := streamPayload(2*streamChunkSize + 5)
	body := io.MultiReader(
		bytes.NewReader(payload[:streamChunkSize+1]),
		&hookReader{r: bytes.NewReader(payload[streamChunkSize+1:]), hook: func() {
			if _, err := s.Put(ctx, "raced", []byte("winner"), PutOptions{}); err != nil {
				t.Errorf("racing put: %v", err)
			}
		}},
	)
	res := s.PutStream(ctx, "raced", body, PutOptions{})
	if res.Err == nil || res.Err.Code != CodeVersionConflict {
		t.Fatalf("racing stream: %+v", res)
	}
	// The buffered winner's value survived, and no orphan chunks remain.
	val, meta, err := s.Get(ctx, "raced", GetOptions{})
	if err != nil || !bytes.Equal(val, []byte("winner")) || meta.Version != 1 {
		t.Fatalf("winner after race: %q v%d %v", val, meta.Version, err)
	}
	cstart, cend := store.ChunkKeyRange("raced")
	keys, err := driveKeys(t, h.ctl, 0, cstart, cend)
	if err != nil || len(keys) != 0 {
		t.Fatalf("orphan chunks after lost race: %d %v", len(keys), err)
	}
}

func TestStreamDetectsDeleteRecreateABA(t *testing.T) {
	h := newHarness(t, 1, nil)
	s := h.ctl.Session("w")
	ctx := context.Background()

	if _, err := s.Put(ctx, "aba", []byte("orig"), PutOptions{}); err != nil {
		t.Fatal(err)
	}
	// Mid-upload, the object is deleted (sweeping the stream's chunks)
	// and recreated at the same version number. The bare version CAS
	// would match the impostor; the commit-time probe must notice the
	// swept chunks and refuse to publish metadata over missing records.
	payload := streamPayload(2*streamChunkSize + 9)
	body := io.MultiReader(
		bytes.NewReader(payload[:streamChunkSize+1]),
		&hookReader{r: bytes.NewReader(payload[streamChunkSize+1:]), hook: func() {
			if err := s.Delete(ctx, "aba", DeleteOptions{}); err != nil {
				t.Errorf("racing delete: %v", err)
			}
			if _, err := s.Put(ctx, "aba", []byte("impostor"), PutOptions{}); err != nil {
				t.Errorf("racing recreate: %v", err)
			}
		}},
	)
	res := s.PutStream(ctx, "aba", body, PutOptions{})
	if res.Err == nil || res.Err.Code != CodeVersionConflict {
		t.Fatalf("ABA stream commit: %+v", res)
	}
	val, meta, err := s.Get(ctx, "aba", GetOptions{})
	if err != nil || !bytes.Equal(val, []byte("impostor")) || meta.Version != 0 {
		t.Fatalf("recreated object after ABA: %q v%d %v", val, meta.Version, err)
	}
	cstart, cend := store.ChunkKeyRange("aba")
	keys, err := driveKeys(t, h.ctl, 0, cstart, cend)
	if err != nil || len(keys) != 0 {
		t.Fatalf("orphan chunks after ABA: %d %v", len(keys), err)
	}
}

// TestStreamStalledUploadHoldsNoLock: an upload whose body never
// arrives holds no lock of its key, so another put of the key — a
// 5-byte one or a multi-chunk one — goes through while it stays open.
func TestStreamStalledUploadHoldsNoLock(t *testing.T) {
	h := newHarness(t, 3, func(c *Config) { c.Replicas = 2 })
	s := h.ctl.Session("w")
	ctx := context.Background()

	body, stall := io.Pipe()
	defer stall.Close()
	reading := make(chan struct{})
	stalled := make(chan OpResult, 1)
	go func() {
		stalled <- s.PutStream(ctx, "k", &hookReader{r: body, hook: func() { close(reading) }}, PutOptions{})
	}()
	<-reading

	within := func(d time.Duration, what string, put func() OpResult) OpResult {
		t.Helper()
		done := make(chan OpResult, 1)
		go func() { done <- put() }()
		select {
		case res := <-done:
			return res
		case <-time.After(d):
			t.Fatalf("%s still waits for a stalled upload of its key after %v", what, d)
			return OpResult{}
		}
	}
	small := within(time.Second, "a 5-byte PutStream", func() OpResult {
		return s.PutStream(ctx, "k", bytes.NewReader([]byte("small")), PutOptions{})
	})
	if small.Err != nil || small.Version != 0 {
		t.Fatalf("5-byte put beside a stalled upload: %+v", small)
	}
	big := streamPayload(3*streamChunkSize + 11)
	res := within(10*time.Second, "a multi-chunk PutStream", func() OpResult {
		return s.PutStream(ctx, "k", bytes.NewReader(big), PutOptions{})
	})
	if res.Err != nil || res.Version != 1 {
		t.Fatalf("multi-chunk put beside a stalled upload: %+v", res)
	}
	if got, _ := readStream(t, s, "k", GetOptions{}); !bytes.Equal(got, big) {
		t.Fatal("the multi-chunk put reads back wrong")
	}
	select {
	case res := <-stalled:
		t.Fatalf("the stalled upload returned before its body arrived: %+v", res)
	default:
	}
	stall.CloseWithError(errors.New("client gone"))
	if res := <-stalled; res.Err == nil {
		t.Fatalf("an upload whose client left committed: %+v", res)
	}
	if n := h.ctl.commits.held(); n != 0 {
		t.Errorf("%d keys left locked", n)
	}
}

// TestStreamConcurrentUploadsFirstCommitWins: two multi-chunk uploads
// of one key, planned against the same head, stream side by side. The
// first to commit wins; the other reports a version conflict, and its
// one sweep leaves exactly the winner's chunk records on every drive.
func TestStreamConcurrentUploadsFirstCommitWins(t *testing.T) {
	for _, class := range []struct {
		name   string
		drives int
		mutate func(*Config)
	}{
		{"replicated", 3, func(c *Config) { c.Replicas = 2 }},
		{"ec 4+2", 6, ecConfig},
	} {
		t.Run(class.name, func(t *testing.T) {
			h := newHarness(t, class.drives, class.mutate)
			s := h.ctl.Session("w")
			ctx := context.Background()
			if _, err := s.Put(ctx, "k", []byte("head"), PutOptions{}); err != nil {
				t.Fatal(err)
			}
			loser, winner := streamPayload(4*streamChunkSize+3), streamPayload(5*streamChunkSize+7)
			// The first upload has planned v1 when its body pauses; the
			// second plans v1 too, streams and commits meanwhile.
			var won OpResult
			body := io.MultiReader(
				bytes.NewReader(loser[:streamChunkSize+1]),
				&hookReader{r: bytes.NewReader(loser[streamChunkSize+1:]), hook: func() {
					done := make(chan OpResult, 1)
					go func() { done <- s.PutStream(ctx, "k", bytes.NewReader(winner), PutOptions{}) }()
					select {
					case won = <-done:
					case <-time.After(10 * time.Second):
						t.Error("the second upload waited for the first's body")
					}
				}},
			)
			lost := s.PutStream(ctx, "k", body, PutOptions{})
			if won.Err != nil || won.Version != 1 {
				t.Fatalf("the upload that committed first: %+v", won)
			}
			if lost.Err == nil || lost.Err.Code != CodeVersionConflict {
				t.Fatalf("the upload that committed second: %+v", lost)
			}
			got, meta := readStream(t, s, "k", GetOptions{})
			if !bytes.Equal(got, winner) || meta.Version != 1 || meta.Upload == 0 {
				t.Fatalf("head after the race: %d bytes, %+v", len(got), meta)
			}
			l, err := h.ctl.layoutOf("k", meta.ECK, meta.ECM)
			if err != nil {
				t.Fatal(err)
			}
			want := make([][]string, h.ctl.drives.Len())
			for st := int64(0); st*int64(l.k) < meta.Chunks; st++ {
				for _, sh := range l.shards(st, meta.Chunks) {
					for _, di := range l.homes(sh.Idx) {
						want[di] = append(want[di], string(store.ChunkKey("k", meta.Upload, sh.Idx)))
					}
				}
			}
			start, end := store.ChunkKeyRange("k")
			for di := range h.ctl.drives.Len() {
				keys, err := driveKeys(t, h.ctl, di, start, end)
				if err != nil {
					t.Fatal(err)
				}
				held := make([]string, len(keys))
				for i, k := range keys {
					held[i] = string(k)
				}
				slices.Sort(held)
				slices.Sort(want[di])
				if !slices.Equal(held, want[di]) {
					t.Errorf("drive %d holds %d chunk records, want the winner's %d", di, len(held), len(want[di]))
				}
			}
		})
	}
}

// eraseDrive wipes one harness drive via the admin erase command.
func eraseDrive(h *harness, di int) error {
	erase := &wire.Message{Type: wire.TErase, User: AdminIdentity}
	erase.Sign(h.ctl.adminKeyFor(h.drives[di].Name()))
	if resp := h.drives[di].Handle(erase); resp.Status != wire.StatusOK {
		return fmt.Errorf("erase drive %d: %v", di, resp.Status)
	}
	return nil
}
