package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"hash"
	"io"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"repro/internal/ycsb"
)

// workload is one row of the matrix. The names are final: every later
// performance claim in this repository cites one of them.
type workload struct {
	name string
	why  string
	// hdd selects kinetic.NewHDDMedia on every drive (sim media
	// otherwise); objectCacheBytes overrides the controller's object
	// cache (0 = the 48 MiB default).
	hdd              bool
	objectCacheBytes int64
	// records × valueSize is the loaded data set.
	records   int
	valueSize int
	// ycsb selects the trace mix; unused by stream-ec.
	ycsb ycsb.Workload
	// opsPerWorker sizes each worker's trace; a trace that runs out is
	// replayed from the start.
	opsPerWorker int
	// openRate is the frozen reference rate of the open loop in ops/s
	// (0 = closed loop only): the median closed-loop ops_per_s of three
	// calibration runs at the commit that added the benchmark, two
	// significant digits. Re-calibrating it starts a new baseline.
	openRate float64
	// probeEvery turns every Nth operation into a denial probe.
	probeEvery int
	// batchEvery turns every Nth update into a 16-record BatchPut.
	batchEvery int
	// hideEvery gives every Nth record (index%N == N-1) the hide
	// policy, so listings are policy-filtered.
	hideEvery int
	// versioned makes every update carry the exact next version.
	versioned bool
	// stream makes the workload the streamed-object cycle: each worker
	// owns a ring of ringSlots slots, each holding one object of each of
	// streamSizes (big: erasure-coded, small: replicated chunks).
	stream      bool
	ringSlots   int
	streamSizes [2]int
	policies    func(callers []string, verifier string) (allow, hide string)
}

const (
	batchRecords = 16
	denyKeys     = 64
	streamKinds  = 4 // distinct payloads per stream size
	// followEvery makes every Nth scan fetch a second page through the
	// page token, so token continuity is checked too.
	followEvery = 10
)

var workloads = []*workload{
	{
		name: "kv-read-hot",
		why:  "YCSB-B on cached 1 KiB records under a 25-principal ACL: router, REST/TLS, session, enclave model, policy residuals and cache hits do the work; drives, media and group commit almost none",
		ycsb: ycsb.WorkloadB, records: 4000, valueSize: 1024,
		opsPerWorker: 400000, openRate: 12000, probeEvery: 100,
		policies: aclPolicies,
	},
	{
		name: "kv-write-hdd",
		why:  "YCSB-A with 16-record batches on HDD-model drives, data twice the object cache, versioned-store policy: seal, group commit, replication, wire, drive and media queueing dominate; the front end is small",
		ycsb: ycsb.WorkloadA, records: 4000, valueSize: 1024,
		hdd: true, objectCacheBytes: smallObjectCache,
		opsPerWorker: 60000, openRate: 930, batchEvery: 5, versioned: true,
		policies: versionedPolicies,
	},
	{
		name: "scan-e",
		why:  "YCSB-E listings of 1-100 records scattered to both shards, every 4th record policy-filtered: router scatter-merge, scan fan-out, per-entry policy and GetKeyRange do the work; group commit almost none",
		ycsb: ycsb.WorkloadE, records: 10000, valueSize: 1024,
		opsPerWorker: 60000, hideEvery: 4,
		policies: aclPolicies,
	},
	{
		name:   "stream-ec",
		why:    "8 MiB erasure-coded and 2 MiB replicated streams put and read back: chunk seal/open, RS encode, stripe assembly, 1 MiB frames and body copies dominate; policy and caches do almost nothing",
		stream: true, ringSlots: 8,
		streamSizes: [2]int{8 << 20, 2 << 20}, // EC 4+2 from 4 MiB; replicated chunks above 1 MiB
		policies:    aclPolicies,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// opKind classes operations for latency reporting.
type opKind uint8

const (
	kRead  opKind = iota // get | List page | GetStream pair
	kWrite               // put | insert | PutStream pair
	kBatch               // 16-record BatchPut
	kProbe               // get that the policy must deny
	numKinds
)

func (k opKind) String() string {
	return [...]string{"read", "write", "batch", "probe"}[k]
}

// op is one generated operation. The program never sees the seed or
// the workload name, only these.
type op struct {
	kind    opKind
	idx     int // record index (get/put/scan start), ring slot (stream)
	scanLen int
	follow  bool // scan: queue the next page (through the token) as the next op
	// token and after continue a listing: the router's page token and
	// the last key of the page before.
	token, after string
}

// routerOnly reports operations that exist only at router depth: a
// batch is split per shard by the router itself, and a page token is
// the router's own cursor vector.
func (o op) routerOnly() bool { return o.kind == kBatch || o.token != "" }

// inputs is everything generated from the seed before the system
// boots: payload material, stream payload digests and the per-worker
// operation traces.
type inputs struct {
	pool    []byte
	traces  [][]op
	keys    []string                 // record index -> key, loaded records only
	digests [2][streamKinds][32]byte // [big|small][kind]
}

func recordKey(i int) string { return ycsb.Key(i) }

func generate(w *workload, seed int64, clients int) (*inputs, error) {
	in := &inputs{pool: make([]byte, 1<<20+4099)}
	rand.New(rand.NewSource(seed)).Read(in.pool)
	in.traces = make([][]op, clients)
	if w.stream {
		for i, size := range w.streamSizes {
			for k := 0; k < streamKinds; k++ {
				h := sha256.New()
				if _, err := io.Copy(h, in.streamBody(size, k)); err != nil {
					return nil, err
				}
				h.Sum(in.digests[i][k][:0])
			}
		}
		for c := range in.traces {
			// write slot, read slot, next slot, ...
			tr := make([]op, 2*w.ringSlots)
			for s := 0; s < w.ringSlots; s++ {
				tr[2*s] = op{kind: kWrite, idx: s}
				tr[2*s+1] = op{kind: kRead, idx: s}
			}
			in.traces[c] = tr
		}
		return in, nil
	}
	in.keys = make([]string, w.records)
	for i := range in.keys {
		in.keys[i] = recordKey(i)
	}
	for c := range in.traces {
		_, trace, err := ycsb.Generate(ycsb.Config{
			Workload: w.ycsb, RecordCount: w.records,
			OperationCount: w.opsPerWorker, Seed: seed*64 + int64(c),
		})
		if err != nil {
			return nil, err
		}
		tr := make([]op, 0, len(trace))
		updates, scans := 0, 0
		for n, t := range trace {
			idx, err := strconv.Atoi(t.Key[len("user"):])
			if err != nil {
				return nil, fmt.Errorf("trace key %q: %w", t.Key, err)
			}
			o := op{idx: idx}
			switch t.Type {
			case ycsb.OpRead:
				o.kind = kRead
			case ycsb.OpScan:
				o.kind, o.scanLen = kRead, t.ScanLen
				scans++
				o.follow = scans%followEvery == 0
			default:
				o.kind = kWrite
				updates++
				if w.batchEvery > 0 && updates%w.batchEvery == 0 {
					o.kind = kBatch
				}
			}
			if w.probeEvery > 0 && (n+1)%w.probeEvery == 0 {
				o = op{kind: kProbe, idx: n / w.probeEvery % denyKeys}
			}
			tr = append(tr, o)
		}
		in.traces[c] = tr
	}
	return in, nil
}

// payload is the value of record key at version: a slice of the seeded
// pool, so generating and checking a value costs no allocation.
func (in *inputs) payload(key string, version int64, size int) []byte {
	h := uint64(version) * 0x9e3779b97f4a7c15
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * 1099511628211
	}
	off := int(h % uint64(len(in.pool)-size))
	return in.pool[off : off+size]
}

// streamBody is the size-byte payload of the given kind: the pool read
// round and round from a kind-specific offset. The pool's length is
// not a multiple of the 1 MiB chunk size, so no two chunks are equal.
func (in *inputs) streamBody(size, kind int) io.Reader {
	return &poolReader{pool: in.pool, off: (kind * 104729) % len(in.pool), left: size}
}

type poolReader struct {
	pool []byte
	off  int
	left int
}

func (r *poolReader) Read(p []byte) (int, error) {
	if r.left == 0 {
		return 0, io.EOF
	}
	n := min(len(p), r.left, len(r.pool)-r.off)
	copy(p, r.pool[r.off:r.off+n])
	r.off = (r.off + n) % len(r.pool)
	r.left -= n
	return n, nil
}

func streamKind(slot int, version int64) int {
	return int((int64(slot) + version) % streamKinds)
}

// state is one workload run: the inputs, the deployment and every
// worker's bookkeeping.
type state struct {
	w       *workload
	in      *inputs
	dep     *deployment
	clients int
	ws      []*workerState
}

// workerState is what one worker knows: where it is in its trace and
// the last acknowledged version of every record it owns. Writes are
// partitioned by owner (record index mod clients, as a versioned
// store's clients manage their counters), so no two workers ever write
// one key and none of this needs a lock.
type workerState struct {
	st  *state
	wk  *worker
	pos int
	// ver[i] is the last acknowledged version of record i*clients+id;
	// it grows as the worker inserts.
	ver     []int64
	denyVer []int64 // deny keys this worker loaded (index j*clients+id)
	// ring[s] holds the generation of slot s's big and small stream
	// objects, -1 when absent. Replacing an object deletes it first, so
	// its version restarts at 0; the generation picks the payload.
	ring [][2]int64
	// cont, when set, is the listing continuation the next op must be.
	cont *op
	// tr records spans while the traced loop runs, nil otherwise.
	tr *tracer
	// userBytes sums the payload of every acknowledged, still-retained
	// version.
	userBytes int64
	rec       recorder
	hashBuf   hash.Hash
}

func newState(w *workload, in *inputs, dep *deployment) *state {
	st := &state{w: w, in: in, dep: dep, clients: len(dep.workers)}
	for _, wk := range dep.workers {
		ws := &workerState{st: st, wk: wk, hashBuf: sha256.New(), ring: make([][2]int64, w.ringSlots)}
		for s := range ws.ring {
			ws.ring[s] = [2]int64{-1, -1}
		}
		st.ws = append(st.ws, ws)
	}
	return st
}

func (ws *workerState) next() op {
	if ws.cont != nil {
		o := *ws.cont
		ws.cont = nil
		return o
	}
	tr := ws.st.in.traces[ws.wk.id]
	o := tr[ws.pos%len(tr)]
	ws.pos++
	return o
}

// key renders record idx, loaded or inserted.
func (st *state) key(idx int) string {
	if idx < len(st.in.keys) {
		return st.in.keys[idx]
	}
	return recordKey(idx)
}

func denyKey(j int) string { return fmt.Sprintf("deny%06d", j) }

func (st *state) hidden(idx int) bool {
	return st.w.hideEvery > 0 && idx%st.w.hideEvery == st.w.hideEvery-1
}

func (st *state) policyFor(idx int) string {
	if st.hidden(idx) {
		return st.dep.hide
	}
	return st.dep.allow
}

// own maps a trace index onto a record this worker owns, keeping its
// popularity rank within one stride.
func (ws *workerState) own(idx int) int {
	c := ws.st.clients
	local := idx / c
	if local >= len(ws.ver) {
		local %= len(ws.ver)
	}
	return local*c + ws.wk.id
}

// existing maps a trace index past the loaded records (a key the trace
// expects an earlier insert to have created) onto one that exists.
func (ws *workerState) existing(idx int) int {
	if idx < ws.st.w.records {
		return idx
	}
	return ws.own(idx)
}

// load writes the records this worker owns, loadBatch at a time (or
// fills its stream ring).
func (w *workload) load(ctx context.Context, st *state, wk *worker) error {
	ws := st.ws[wk.id]
	if w.stream {
		for s := range ws.ring {
			if err := ws.putSlot(ctx, wk.rt, s, nil); err != nil {
				return err
			}
		}
		return nil
	}
	var batch []putReq
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		vers, err := wk.rt.batchPut(ctx, batch)
		if err != nil {
			return err
		}
		for i, v := range vers {
			if v != 0 {
				return fmt.Errorf("load %s: created at version %d", batch[i].key, v)
			}
			ws.userBytes += int64(len(batch[i].value))
		}
		batch = batch[:0]
		return nil
	}
	add := func(key, policy string) error {
		batch = append(batch, putReq{
			key: key, value: st.in.payload(key, 0, w.valueSize),
			hasVersion: true, policy: policy,
		})
		if len(batch) == loadBatch {
			return flush()
		}
		return nil
	}
	for idx := wk.id; idx < w.records; idx += st.clients {
		if err := add(st.key(idx), st.policyFor(idx)); err != nil {
			return err
		}
		ws.ver = append(ws.ver, 0)
	}
	if w.probeEvery > 0 {
		for j := wk.id; j < denyKeys; j += st.clients {
			if err := add(denyKey(j), st.dep.hide); err != nil {
				return err
			}
			ws.denyVer = append(ws.denyVer, 0)
		}
	}
	return flush()
}

// handshakeKeys returns one readable key per node.
func (w *workload) handshakeKeys(d *deployment, st *state) ([]string, error) {
	return onePerNode(d.mc, func(i int) string {
		if w.stream {
			return streamKey(i%st.clients, i/st.clients%w.ringSlots, 1)
		}
		for st.hidden(i) {
			i++
		}
		return st.key(i)
	})
}

// touch reads key once, untimed and unchecked.
func (w *workload) touch(ctx context.Context, ep endpoint, key string) error {
	if w.stream {
		_, err := ep.getStream(ctx, key, io.Discard)
		return err
	}
	_, _, err := ep.get(ctx, key)
	return err
}

// violation is a correctness failure: the system answered, wrongly.
type violation struct{ msg string }

func (v *violation) Error() string { return "violation: " + v.msg }

func violationf(format string, args ...any) error {
	return &violation{msg: fmt.Sprintf(format, args...)}
}

// exec runs one operation through ep and checks its answer. An error
// is a failed operation or, when it wraps *violation, a wrong answer.
func (ws *workerState) exec(ctx context.Context, ep endpoint, o op) error {
	st := ws.st
	switch {
	case st.w.stream && o.kind == kWrite:
		return ws.putSlot(ctx, ep, o.idx, &ws.rec)
	case st.w.stream:
		return ws.getSlot(ctx, ep, o.idx, &ws.rec)
	case o.kind == kProbe:
		key := denyKey(o.idx)
		_, _, err := ep.get(ws.reqCtx(ctx), key)
		if err == nil {
			return violationf("denial probe on %s was allowed", key)
		}
		if !errors.Is(err, errDenied) {
			return err
		}
		return nil
	case o.kind == kRead && o.scanLen > 0:
		return ws.scan(ctx, ep, o)
	case o.kind == kRead:
		key := st.key(ws.existing(o.idx))
		val, ver, err := ep.get(ws.reqCtx(ctx), key)
		if err != nil {
			return err
		}
		if !bytes.Equal(val, st.in.payload(key, ver, st.w.valueSize)) {
			return violationf("get %s: payload is not version %d's", key, ver)
		}
		return nil
	case o.kind == kWrite && st.w.ycsb == ycsb.WorkloadE:
		// YCSB-E updates are inserts of fresh keys.
		idx := len(ws.ver)*st.clients + ws.wk.id
		return ws.write(ctx, ep, idx, true)
	case o.kind == kWrite:
		return ws.write(ctx, ep, ws.own(o.idx), false)
	case o.kind == kBatch:
		return ws.batch(ctx, o)
	}
	return fmt.Errorf("unknown op %+v", o)
}

// write puts the next version of a record this worker owns.
func (ws *workerState) write(ctx context.Context, ep endpoint, idx int, insert bool) error {
	st := ws.st
	local := idx / st.clients
	next := int64(0)
	if !insert {
		next = ws.ver[local] + 1
	}
	key := st.key(idx)
	p := putReq{key: key, value: st.in.payload(key, next, st.w.valueSize)}
	if insert {
		p.policy = st.policyFor(idx)
	}
	if st.w.versioned || insert {
		p.version, p.hasVersion = next, true
	}
	got, err := ep.put(ws.reqCtx(ctx), p)
	if err != nil {
		return err
	}
	if got != next {
		return violationf("put %s: acknowledged version %d, want %d", key, got, next)
	}
	if insert {
		ws.ver = append(ws.ver, 0)
	} else {
		ws.ver[local] = next
	}
	ws.userBytes += int64(len(p.value))
	return nil
}

// batch writes the next version of batchRecords owned records starting
// at the trace's key. Router depth only: see routerEP.batchPut.
func (ws *workerState) batch(ctx context.Context, o op) error {
	st := ws.st
	first := ws.own(o.idx) / st.clients
	reqs := make([]putReq, batchRecords)
	for i := range reqs {
		local := (first + i) % len(ws.ver)
		key := st.key(local*st.clients + ws.wk.id)
		next := ws.ver[local] + 1
		reqs[i] = putReq{
			key: key, value: st.in.payload(key, next, st.w.valueSize),
			version: next, hasVersion: true,
		}
	}
	vers, err := ws.wk.rt.batchPut(ws.reqCtx(ctx), reqs)
	if err != nil {
		return err
	}
	for i, v := range vers {
		local := (first + i) % len(ws.ver)
		if v != reqs[i].version {
			return violationf("batch put %s: acknowledged version %d, want %d", reqs[i].key, v, reqs[i].version)
		}
		ws.ver[local] = v
		ws.userBytes += int64(len(reqs[i].value))
	}
	return nil
}

// scan lists one page and checks it: sorted, free of duplicates and
// hidden keys, within bounds, and — over the records loaded before the
// run, which no one deletes — complete. A follow scan queues the next
// page, fetched through the page token, as the worker's next operation.
func (ws *workerState) scan(ctx context.Context, ep endpoint, o op) error {
	st := ws.st
	startIdx := ws.existing(o.idx)
	start, first := st.key(startIdx), st.firstVisible(startIdx)
	if o.token != "" {
		last, _ := strconv.Atoi(o.after[len("user"):])
		start, first = o.after+"\x01", st.firstVisible(last+1)
	}
	keys, token, err := ep.list(ws.reqCtx(ctx), start, o.scanLen, o.token)
	if err != nil {
		return err
	}
	ws.rec.listed += len(keys)
	_, merged := ep.(routerEP)
	if err := st.checkPage(keys, start, first, o.scanLen, merged); err != nil {
		return err
	}
	if o.follow && merged && token != "" && len(keys) > 0 {
		ws.cont = &op{kind: kRead, idx: o.idx, scanLen: o.scanLen, token: token, after: keys[len(keys)-1]}
	}
	return nil
}

// firstVisible is the first loaded record at or after idx that the
// callers may list, or -1 past the loaded range.
func (st *state) firstVisible(idx int) int {
	for st.hidden(idx) {
		idx++
	}
	if idx >= st.w.records {
		return -1
	}
	return idx
}

// checkPage checks one listing page that starts at key start. want is
// the loaded record the page must begin with (-1 = none left). Pages
// from below the router are one unmerged page per shard, so only the
// per-entry checks apply to them.
func (st *state) checkPage(keys []string, start string, want, limit int, merged bool) error {
	if merged && len(keys) > limit {
		return violationf("list from %q: %d entries over limit %d", start, len(keys), limit)
	}
	for i, k := range keys {
		if k < start {
			return violationf("list from %q: entry %s precedes the start", start, k)
		}
		idx, err := strconv.Atoi(strings.TrimPrefix(k, "user"))
		if err != nil {
			return violationf("list from %q: foreign key %q", start, k)
		}
		if st.hidden(idx) {
			return violationf("list from %q: policy-hidden key %s listed", start, k)
		}
		if !merged {
			continue
		}
		if i > 0 && k <= keys[i-1] {
			return violationf("list from %q: %s after %s (unsorted or duplicate)", start, k, keys[i-1])
		}
		if idx != want && (want >= 0 || idx < st.w.records) {
			return violationf("list from %q: got %s where record %d belongs", start, k, want)
		}
		if want >= 0 {
			want = st.firstVisible(want + 1)
		}
	}
	if merged && len(keys) < limit && want >= 0 {
		return violationf("list from %q: page ends before record %d", start, want)
	}
	return nil
}

// putSlot replaces slot s's two stream objects: delete what is there
// (ring maintenance, untimed), then PutStream the big and the small
// object. Both puts together are one write operation, so a gain for one
// stream engine that costs the other shows in one number; rec, when
// set, also gets each size's own time.
func (ws *workerState) putSlot(ctx context.Context, ep endpoint, s int, rec *recorder) error {
	st := ws.st
	for i, size := range st.w.streamSizes {
		key := streamKey(ws.wk.id, s, i)
		gen := ws.ring[s][i] + 1
		if gen > 0 {
			if err := ep.del(ws.reqCtx(ctx), key); err != nil {
				return fmt.Errorf("delete %s: %w", key, err)
			}
			ws.ring[s][i] = -1
			ws.userBytes -= int64(size)
		}
		t0 := time.Now()
		ver, err := ep.putStream(ws.reqCtx(ctx), key, st.in.streamBody(size, streamKind(s, gen)), st.dep.allow)
		if err != nil {
			return fmt.Errorf("put stream %s: %w", key, err)
		}
		if rec != nil {
			rec.addStream(kWrite, i, time.Since(t0))
		}
		if ver != 0 {
			return violationf("put stream %s: acknowledged version %d, want 0", key, ver)
		}
		ws.ring[s][i] = gen
		ws.userBytes += int64(size)
	}
	return nil
}

// getSlot reads slot s's two objects back and checks their SHA-256.
func (ws *workerState) getSlot(ctx context.Context, ep endpoint, s int, rec *recorder) error {
	for i, gen := range ws.ring[s] {
		key := streamKey(ws.wk.id, s, i)
		ws.hashBuf.Reset()
		t0 := time.Now()
		_, err := ep.getStream(ws.reqCtx(ctx), key, ws.hashBuf)
		if err != nil {
			return fmt.Errorf("get stream %s: %w", key, err)
		}
		if rec != nil {
			rec.addStream(kRead, i, time.Since(t0))
		}
		var sum [32]byte
		ws.hashBuf.Sum(sum[:0])
		if sum != ws.st.in.digests[i][streamKind(s, gen)] {
			return violationf("get stream %s: SHA-256 is not generation %d's", key, gen)
		}
	}
	return nil
}

func streamKey(worker, slot, small int) string {
	return fmt.Sprintf("stream/w%d/s%d/%s", worker, slot, [...]string{"big", "small"}[small])
}
