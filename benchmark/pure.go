package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"time"

	"repro/internal/cache"
	"repro/internal/client"
	"repro/internal/ec"
	"repro/internal/kinetic"
	"repro/internal/kinetic/kclient"
	"repro/internal/kinetic/wire"
	"repro/internal/netx"
	"repro/internal/policy"
	"repro/internal/policy/lang"
	"repro/internal/store"
)

// The pure layers — those with no state shared with a running
// deployment — are timed on their own, at fixed iteration counts and
// with the workload's sizes, policy source and media model. The counts
// are small on purpose: these are per-layer budget lines, not gated
// metrics, and the whole pass must stay a small share of a run.
const (
	itersTiny  = 20000 // tens of nanoseconds each
	itersSmall = 2000  // microseconds each
	itersWire  = 200   // a round trip over the in-memory pipe each
	itersBulk  = 8     // a MiB or more each
)

// timeEach returns the mean duration of n calls of f.
func timeEach(n int, f func()) time.Duration {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		f()
	}
	return time.Since(t0) / time.Duration(n)
}

func mibPerSec(bytes int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / (1 << 20) / d.Seconds()
}

// fixedObjects answers the policy interpreter's object predicates with
// one stored version, so content-dependent policies evaluate fully.
type fixedObjects struct{ version int64 }

func (f fixedObjects) Info(id string) (policy.ObjectInfo, bool, error) {
	return policy.ObjectInfo{ID: id, Version: f.version, Size: 1024}, true, nil
}

func (f fixedObjects) InfoAt(id string, v int64) (policy.ObjectInfo, bool, error) {
	return policy.ObjectInfo{ID: id, Version: v, Size: 1024}, v <= f.version, nil
}

func (f fixedObjects) Content(string, int64) ([]byte, bool, error) { return nil, false, nil }

// pureLayers times the stateless layers and returns the results under
// their per-layer metric names.
func pureLayers(m *measured) (map[string]float64, error) {
	out := make(map[string]float64)
	w, st, dep := m.cfg.w, m.st, m.st.dep
	valueSize := max(w.valueSize, 1024)
	value := st.in.pool[:valueSize]
	chunk := st.in.pool[:store.MaxObjectSize]
	key := recordKey(1)

	// policy: the workload's own allow policy, evaluated for a caller on
	// the permission its hot path checks.
	src := dep.allowSrc
	prog, err := policy.CompileSource(src)
	if err != nil {
		return nil, err
	}
	perm := lang.PermRead
	if w.versioned {
		perm = lang.PermUpdate // the content-dependent half
	}
	caller := dep.workers[0].fp
	out["policy.compile_us"] = us(timeEach(20, func() { policy.CompileSource(src) }))
	out["policy.partial_eval_us"] = us(timeEach(200, func() { policy.PartialEval(prog, perm, caller) }))
	res := policy.PartialEval(prog, perm, caller)
	req := &policy.Request{
		Op: perm, ObjectID: key, SessionKey: caller,
		NextVersion: 6, HasNextVersion: true, Now: time.Now(),
	}
	objs := fixedObjects{version: 5}
	if d, err := res.Eval(req, objs); err != nil || !d.Allowed {
		return nil, fmt.Errorf("policy microbenchmark: residual denies the caller: %v %v", d.Reason, err)
	}
	out["policy.residual_eval_ns"] = float64(timeEach(itersTiny, func() { res.Eval(req, objs) }))
	out["policy.interp_eval_ns"] = float64(timeEach(itersTiny, func() { policy.Eval(prog, req, objs) }))
	out["policy.residual_clauses"] = float64(res.Clauses())

	// cache: a hit in a cache shaped like the controller's object cache.
	oc := cache.New[string, *store.Record](cache.Config[*store.Record]{
		BudgetBytes: 48 << 20,
		SizeOf:      func(r *store.Record) int64 { return int64(len(r.Payload)) + 128 },
	})
	rec := &store.Record{Meta: store.Meta{Key: key, Size: int64(valueSize), PolicyID: dep.allow}, Payload: value}
	for i := 0; i < 1024; i++ {
		oc.Put(recordKey(i), rec)
	}
	out["cache.get_hit_ns"] = float64(timeEach(itersTiny, func() { oc.Get(key) }))

	// store: seal and open a record and a full 1 MiB chunk.
	codec, err := store.NewCodec([32]byte{1}, true)
	if err != nil {
		return nil, err
	}
	sealed, err := codec.EncodeRecord(rec)
	if err != nil {
		return nil, err
	}
	out["store.encode_record_us"] = us(timeEach(itersSmall, func() { codec.EncodeRecord(rec) }))
	out["store.decode_record_us"] = us(timeEach(itersSmall, func() { codec.DecodeRecord(sealed) }))
	chunkRec := &store.Record{Meta: rec.Meta, Payload: chunk}
	sealedChunk, err := codec.EncodeRecord(chunkRec)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, 0, len(chunk)+64)
	out["store.encode_chunk_mb_per_s"] = mibPerSec(len(chunk), timeEach(itersBulk, func() { codec.EncodeRecord(chunkRec) }))
	out["store.decode_chunk_mb_per_s"] = mibPerSec(len(chunk), timeEach(itersBulk, func() { codec.DecodeRecordInto(sealedChunk, buf) }))
	out["store.shard_hash_ns"] = float64(timeEach(itersTiny, func() { store.ShardHash(key) }))

	// cluster: owner lookup on the deployment's real map.
	sm := dep.mc.Map()
	out["cluster.owner_lookup_ns"] = float64(timeEach(itersTiny, func() { sm.OwnerOf(key) }))

	// client: what a first request costs over a later one — the mTLS
	// handshake over the in-memory pipe. The fresh identities are in no
	// ACL, so the reads are denied; the handshake happens all the same.
	var shakes []time.Duration
	for i := 0; i < 3; i++ {
		for n, node := range dep.mc.Nodes {
			cl, _, err := node.NewClient(fmt.Sprintf("bench-handshake-%d-%d", i, n))
			if err != nil {
				return nil, err
			}
			var took [2]time.Duration
			for j := range took {
				t0 := time.Now()
				cl.Get(context.Background(), key, client.GetOptions{})
				took[j] = time.Since(t0)
			}
			shakes = append(shakes, took[0]-took[1])
		}
	}
	out["client.tls_handshake_ms"] = ms(median(sorted(shakes)))

	// ec: 4+2 over 1 MiB shards; reconstruct with two data shards lost.
	if err := pureEC(st.in.pool, out); err != nil {
		return nil, err
	}
	if err := pureWire(value, out); err != nil {
		return nil, err
	}
	return out, pureDrive(w, value, out)
}

func pureEC(pool []byte, out map[string]float64) error {
	const k, par, shard = 4, 2, 1 << 20
	code, err := ec.New(k, par)
	if err != nil {
		return err
	}
	data := make([][]byte, k)
	for i := range data {
		data[i] = pool[i*1024 : i*1024+shard]
	}
	parity := [][]byte{make([]byte, shard), make([]byte, shard)}
	out["ec.encode_mb_per_s"] = mibPerSec(k*shard, timeEach(itersBulk, func() {
		clear(parity[0])
		clear(parity[1])
		code.Encode(data, parity)
	}))
	out["ec.reconstruct_mb_per_s"] = mibPerSec(k*shard, timeEach(itersBulk, func() {
		shards := [][]byte{nil, nil, data[2], data[3], parity[0], parity[1]}
		code.ReconstructData(shards)
	}))
	return nil
}

// pureWire times framing alone: encode a signed put, decode it back.
func pureWire(value []byte, out map[string]float64) error {
	msg := &wire.Message{
		Type: wire.TPut, Seq: 1, User: kinetic.DefaultAdminIdentity,
		Key: []byte("o\x00" + recordKey(1)), Value: value, NewVersion: []byte{0, 0, 0, 0, 0, 0, 0, 1},
	}
	enc := wire.NewEncoder()
	out["kclient.frame_encode_ns"] = float64(timeEach(itersTiny, func() {
		enc.WriteFrame(io.Discard, msg, kinetic.DefaultAdminKey)
	}))
	var frame bytes.Buffer
	if err := enc.WriteFrame(&frame, msg, kinetic.DefaultAdminKey); err != nil {
		return err
	}
	rd := bytes.NewReader(frame.Bytes())
	br := bufio.NewReader(rd)
	var got wire.Message
	out["kclient.frame_decode_ns"] = float64(timeEach(itersTiny, func() {
		rd.Reset(frame.Bytes())
		br.Reset(rd)
		wire.ReadFrame(br, &got)
	}))
	return nil
}

// pureDrive times the drive client against a standalone drive with the
// workload's media model, and the drive's state machine directly (sim
// media, so the numbers are its CPU cost).
func pureDrive(w *workload, value []byte, out map[string]float64) error {
	var media kinetic.MediaModel
	if w.hdd {
		media = kinetic.NewHDDMedia(hddTimeScale)
	}
	drive := kinetic.NewDrive(kinetic.Config{Name: "bench-standalone", Media: media})
	ln := netx.NewListener("bench-standalone")
	srv := kinetic.Serve(drive, ln, nil)
	defer ln.Close()
	defer srv.Close()
	ctx := context.Background()
	cl, err := kclient.Dial(ctx,
		func(ctx context.Context) (net.Conn, error) { return ln.DialContext(ctx) },
		kclient.Credentials{Identity: kinetic.DefaultAdminIdentity, Key: kinetic.DefaultAdminKey})
	if err != nil {
		return err
	}
	defer cl.Close()

	ver := []byte{1}
	name := func(i int) []byte { return []byte(fmt.Sprintf("m\x00user%012d", i)) }
	var firstErr error
	note := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	n := 0
	out["kclient.put_us"] = us(timeEach(itersWire, func() {
		note(cl.Put(ctx, name(n), value, nil, ver, true))
		n++
	}))
	g := 0
	out["kclient.get_us"] = us(timeEach(itersWire, func() {
		_, _, err := cl.Get(ctx, name(g%n))
		note(err)
		g++
	}))
	out["kclient.range100_us"] = us(timeEach(itersWire, func() {
		_, err := cl.GetKeyRange(ctx, name(0), name(n), true, false, 100)
		note(err)
	}))
	// One grouped batch of 16 single-put groups: the group-commit carrier.
	ops := make([]wire.BatchOp, batchRecords)
	sizes := make([]uint32, batchRecords)
	b := 0
	out["kclient.batch_groups16_us"] = us(timeEach(itersWire/4, func() {
		for i := range ops {
			ops[i] = wire.BatchOp{Op: wire.BatchPut, Key: name(n + b), Value: value, NewVersion: ver, Force: true}
			sizes[i] = 1
			b++
		}
		_, err := cl.BatchGroups(ctx, ops, sizes, wire.SyncWriteThrough)
		note(err)
	}))
	if firstErr != nil {
		return fmt.Errorf("drive client microbenchmark: %w", firstErr)
	}

	direct := kinetic.NewDrive(kinetic.Config{Name: "bench-direct"})
	put := &wire.Message{Type: wire.TPut, User: kinetic.DefaultAdminIdentity, Key: name(0), Value: value, NewVersion: ver, Force: true}
	put.Sign(kinetic.DefaultAdminKey)
	out["kinetic.handle_put_ns"] = float64(timeEach(itersSmall, func() { note(handled(direct.Handle(put))) }))
	get := &wire.Message{Type: wire.TGet, User: kinetic.DefaultAdminIdentity, Key: name(0)}
	get.Sign(kinetic.DefaultAdminKey)
	out["kinetic.handle_get_ns"] = float64(timeEach(itersSmall, func() { note(handled(direct.Handle(get))) }))
	if firstErr != nil {
		return fmt.Errorf("drive microbenchmark: %w", firstErr)
	}
	return nil
}

func handled(resp *wire.Message) error {
	if resp == nil || resp.Status != wire.StatusOK {
		return fmt.Errorf("drive answered %+v", resp)
	}
	return nil
}
