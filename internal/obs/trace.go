package obs

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"log"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Wire headers carrying trace context between router, client and
// controller on the v1/v2 HTTP APIs. The drive link carries the trace
// id in the Kinetic message itself (wire.Message.TraceID).
const (
	// TraceHeader carries the 16-hex-digit trace id end to end.
	TraceHeader = "X-Pesos-Trace"
	// RouteHeader carries the router's per-attempt context
	// ("attempt=2;redirects=1;retargets=0"), recorded by the
	// controller as the trace's router span.
	RouteHeader = "X-Pesos-Route"
)

// idSeed randomizes process-local trace ids; the counter keeps them
// unique within the process.
var (
	idSeed    uint64
	idCounter atomic.Uint64
	idOnce    sync.Once
)

// NewTraceID returns a process-unique random-looking 64-bit trace id.
func NewTraceID() uint64 {
	idOnce.Do(func() {
		var b [8]byte
		if _, err := rand.Read(b[:]); err == nil {
			idSeed = binary.LittleEndian.Uint64(b[:])
		}
	})
	// splitmix64 of a seeded counter: unique, cheap, well mixed.
	z := idSeed + idCounter.Add(1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

// FormatTraceID renders a trace id as its canonical 16-hex form.
func FormatTraceID(id uint64) string { return fmt.Sprintf("%016x", id) }

// ParseTraceID parses the canonical hex form (0, false on garbage).
func ParseTraceID(s string) (uint64, bool) {
	if s == "" || len(s) > 16 {
		return 0, false
	}
	v, err := strconv.ParseUint(s, 16, 64)
	return v, err == nil && v != 0
}

// Attr is one span attribute.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Span is one recorded stage of a trace.
type Span struct {
	ID     uint64
	Parent uint64 // 0 for the root
	Name   string
	Start  time.Duration // offset from trace start
	Dur    time.Duration // 0 while open
	Attrs  []Attr
}

// maxSpansPerTrace bounds one trace's span slice; stages past the cap
// are counted as dropped rather than grown without bound (a scan over
// a huge keyspace must not hold the trace hostage).
const maxSpansPerTrace = 128

// Trace is one request's span tree, accumulated under a small mutex
// (spans are appended from replica fan-out goroutines concurrently).
type Trace struct {
	id   uint64
	wall time.Time
	base time.Time

	mu      sync.Mutex
	spans   []Span
	nextID  uint64
	dropped uint32
	dur     time.Duration
}

// ID returns the trace id.
func (t *Trace) ID() uint64 { return t.id }

// addSpan opens a span and returns its id (0 when the cap is hit).
func (t *Trace) addSpan(parent uint64, name string, start time.Duration) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpansPerTrace {
		t.dropped++
		return 0
	}
	t.nextID++
	id := t.nextID
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Name: name, Start: start})
	return id
}

// finishSpan closes a span and attaches its attributes.
func (t *Trace) finishSpan(id uint64, dur time.Duration, attrs []Attr) {
	if id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.spans {
		if t.spans[i].ID == id {
			t.spans[i].Dur = dur
			if len(attrs) > 0 {
				t.spans[i].Attrs = append(t.spans[i].Attrs, attrs...)
			}
			return
		}
	}
}

// recordSpan appends an already-complete span (remote timings: the
// drive's reported media service time, the router's attempt).
func (t *Trace) recordSpan(parent uint64, name string, start, dur time.Duration, attrs []Attr) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpansPerTrace {
		t.dropped++
		return
	}
	t.nextID++
	t.spans = append(t.spans, Span{
		ID: t.nextID, Parent: parent, Name: name, Start: start, Dur: dur, Attrs: attrs,
	})
}

// TracerConfig configures a Tracer.
type TracerConfig struct {
	// Store receives completed root traces (nil records nothing).
	Store *TraceStore
	// SlowThreshold dumps the span tree of ops at or over this
	// duration to SlowLog (0 disables).
	SlowThreshold time.Duration
	// SlowLog overrides the slow-op sink (default log.Printf).
	SlowLog func(format string, args ...any)
	// Sample head-samples self-initiated traces: 1-in-Sample requests
	// arriving without a caller id get a trace (0 or 1 = all of them).
	// Requests that carry an explicit id are always traced — an
	// operator chasing one request must never lose it to the sampler.
	Sample int
}

// Tracer creates traces. A nil *Tracer is the kill switch: every
// operation on it (and on the spans it did not create) is a no-op, so
// instrumented code never branches on the obs configuration.
type Tracer struct {
	store   *TraceStore
	slow    time.Duration
	slowLog func(format string, args ...any)
	sample  uint64
	tick    atomic.Uint64
}

// NewTracer builds a tracer.
func NewTracer(cfg TracerConfig) *Tracer {
	t := &Tracer{store: cfg.Store, slow: cfg.SlowThreshold, slowLog: cfg.SlowLog}
	if cfg.Sample > 1 {
		t.sample = uint64(cfg.Sample)
	}
	if t.slowLog == nil {
		t.slowLog = log.Printf
	}
	return t
}

// Sampled decides whether a request with no caller-provided trace id
// gets a trace this time. One atomic increment on the unsampled path.
func (t *Tracer) Sampled() bool {
	if t == nil {
		return false
	}
	if t.sample == 0 {
		return true
	}
	return t.tick.Add(1)%t.sample == 0
}

// spanCtx is the context payload of an active span.
type spanCtx struct {
	tracer *Tracer
	trace  *Trace
	span   uint64
}

type ctxKey int

const (
	spanCtxKey ctxKey = iota
	traceIDKey
	routeInfoKey
)

// ActiveSpan is an open span; End closes it. Nil-safe throughout.
type ActiveSpan struct {
	sc    spanCtx
	root  bool
	attrs []Attr
}

// Start opens a root span, beginning a new trace. id 0 generates one;
// a caller-provided id (from TraceHeader) is adopted, which is what
// stitches the router's attempts and the controller's work into one
// trace. Returns the input ctx unchanged when the tracer is nil.
func (t *Tracer) Start(ctx context.Context, name string, id uint64) (context.Context, *ActiveSpan) {
	if t == nil {
		return ctx, nil
	}
	if id == 0 {
		id = NewTraceID()
	}
	now := time.Now()
	// A healthy request produces a handful of spans (root, router,
	// policy, replicate, queue wait, drive); starting at that capacity
	// keeps the hot path at one spans allocation instead of a regrowth
	// per stage.
	tr := &Trace{id: id, wall: now, base: now, spans: make([]Span, 0, 8)}
	sid := tr.addSpan(0, name, 0)
	as := &ActiveSpan{sc: spanCtx{tracer: t, trace: tr, span: sid}, root: true}
	return context.WithValue(ctx, spanCtxKey, as.sc), as
}

// StartSpan opens a child span under the context's active trace; a
// no-op returning ctx unchanged when no trace is active.
func StartSpan(ctx context.Context, name string) (context.Context, *ActiveSpan) {
	sc, ok := ctx.Value(spanCtxKey).(spanCtx)
	if !ok {
		return ctx, nil
	}
	sid := sc.trace.addSpan(sc.span, name, time.Since(sc.trace.base))
	child := sc
	child.span = sid
	return context.WithValue(ctx, spanCtxKey, child), &ActiveSpan{sc: child}
}

// Attr attaches an attribute, returned for chaining.
func (s *ActiveSpan) Attr(key, value string) *ActiveSpan {
	if s == nil {
		return nil
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	return s
}

// End closes the span. Ending the root span completes the trace:
// it lands in the store and, when over the slow threshold, its span
// tree goes to the slow-op log.
func (s *ActiveSpan) End() {
	if s == nil {
		return
	}
	tr := s.sc.trace
	dur := time.Since(tr.base.Add(spanStart(tr, s.sc.span)))
	tr.finishSpan(s.sc.span, dur, s.attrs)
	if !s.root {
		return
	}
	tr.mu.Lock()
	tr.dur = time.Since(tr.base)
	total := tr.dur
	tr.mu.Unlock()
	t := s.sc.tracer
	if t.store != nil {
		t.store.Add(tr)
	}
	if t.slow > 0 && total >= t.slow {
		t.slowLog("obs: slow op trace=%s dur=%s\n%s",
			FormatTraceID(tr.id), total.Round(time.Microsecond), FormatTree(tr.Dump()))
	}
}

// spanStart reads a span's start offset.
func spanStart(tr *Trace, id uint64) time.Duration {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for i := range tr.spans {
		if tr.spans[i].ID == id {
			return tr.spans[i].Start
		}
	}
	return 0
}

// RecordSpan attaches a completed timing to the context's active
// trace as a child of the current span; no-op without one.
func RecordSpan(ctx context.Context, name string, start time.Time, dur time.Duration, attrs ...Attr) {
	sc, ok := ctx.Value(spanCtxKey).(spanCtx)
	if !ok {
		return
	}
	sc.trace.recordSpan(sc.span, name, start.Sub(sc.trace.base), dur, attrs)
}

// Recording reports whether ctx carries an open span, i.e. whether a
// RecordSpan on it would be kept. Hot paths check it before building
// span attributes.
func Recording(ctx context.Context) bool {
	_, ok := ctx.Value(spanCtxKey).(spanCtx)
	return ok
}

// TraceID returns the trace id visible in ctx: the active span's
// trace if one is open, else an id installed by WithTraceID, else 0.
// This is what the drive client stamps into wire messages and the
// HTTP client into TraceHeader.
func TraceID(ctx context.Context) uint64 {
	if sc, ok := ctx.Value(spanCtxKey).(spanCtx); ok {
		return sc.trace.id
	}
	if id, ok := ctx.Value(traceIDKey).(uint64); ok {
		return id
	}
	return 0
}

// WithTraceID installs a bare trace id for propagation from a process
// that records no spans itself (a client or router ahead of the
// controller's trace).
func WithTraceID(ctx context.Context, id uint64) context.Context {
	return context.WithValue(ctx, traceIDKey, id)
}

// RouteInfo is the router's per-attempt context, carried to the
// controller in RouteHeader so the server-side trace includes the
// client-side routing stage.
type RouteInfo struct {
	Attempt   int // 1-based dispatch attempt
	Redirects int // wrong-shard redirects so far
	Retargets int // transport/5xx retargets so far
}

// String renders the RouteHeader value.
func (ri RouteInfo) String() string {
	return fmt.Sprintf("attempt=%d;redirects=%d;retargets=%d", ri.Attempt, ri.Redirects, ri.Retargets)
}

// ParseRouteInfo parses a RouteHeader value.
func ParseRouteInfo(s string) (RouteInfo, bool) {
	var ri RouteInfo
	if s == "" {
		return ri, false
	}
	ok := false
	for _, part := range strings.Split(s, ";") {
		k, v, found := strings.Cut(part, "=")
		if !found {
			continue
		}
		n, err := strconv.Atoi(v)
		if err != nil {
			continue
		}
		switch k {
		case "attempt":
			ri.Attempt, ok = n, true
		case "redirects":
			ri.Redirects = n
		case "retargets":
			ri.Retargets = n
		}
	}
	return ri, ok
}

// WithRouteInfo installs the router's attempt context for the HTTP
// client to forward (the router wraps the client, so the header hop
// goes through the context).
func WithRouteInfo(ctx context.Context, ri RouteInfo) context.Context {
	return context.WithValue(ctx, routeInfoKey, ri)
}

// RouteInfoFromContext reads the router attempt context.
func RouteInfoFromContext(ctx context.Context) (RouteInfo, bool) {
	ri, ok := ctx.Value(routeInfoKey).(RouteInfo)
	return ri, ok
}

// TraceStore is a fixed-size ring of completed traces, the backing of
// GET /v2/trace/{id}. Lookups scan backwards — the store is sized in
// the hundreds and queried by humans.
type TraceStore struct {
	mu   sync.Mutex
	ring []*Trace
	next int
}

// NewTraceStore creates a store holding the last n traces (n ≤ 0
// selects 1024).
func NewTraceStore(n int) *TraceStore {
	if n <= 0 {
		n = 1024
	}
	return &TraceStore{ring: make([]*Trace, n)}
}

// Add records a completed trace.
func (s *TraceStore) Add(t *Trace) {
	s.mu.Lock()
	s.ring[s.next] = t
	s.next = (s.next + 1) % len(s.ring)
	s.mu.Unlock()
}

// Get returns the most recent trace with the given id, nil if it has
// aged out.
func (s *TraceStore) Get(id uint64) *Trace {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := 1; i <= len(s.ring); i++ {
		t := s.ring[(s.next-i+len(s.ring))%len(s.ring)]
		if t != nil && t.id == id {
			return t
		}
	}
	return nil
}

// TraceDump is the JSON form of a completed trace.
type TraceDump struct {
	ID         string     `json:"id"`
	Start      time.Time  `json:"start"`
	DurationUs int64      `json:"durationUs"`
	Dropped    uint32     `json:"droppedSpans,omitempty"`
	Spans      []SpanDump `json:"spans"`
}

// SpanDump is the JSON form of one span.
type SpanDump struct {
	ID      uint64            `json:"id"`
	Parent  uint64            `json:"parent,omitempty"`
	Name    string            `json:"name"`
	StartUs int64             `json:"startUs"`
	DurUs   int64             `json:"durUs"`
	Attrs   map[string]string `json:"attrs,omitempty"`
}

// Dump renders the trace for the API and the slow-op log.
func (t *Trace) Dump() *TraceDump {
	t.mu.Lock()
	defer t.mu.Unlock()
	d := &TraceDump{
		ID: FormatTraceID(t.id), Start: t.wall,
		DurationUs: t.dur.Microseconds(), Dropped: t.dropped,
	}
	for _, sp := range t.spans {
		sd := SpanDump{
			ID: sp.ID, Parent: sp.Parent, Name: sp.Name,
			StartUs: sp.Start.Microseconds(), DurUs: sp.Dur.Microseconds(),
		}
		if len(sp.Attrs) > 0 {
			sd.Attrs = make(map[string]string, len(sp.Attrs))
			for _, a := range sp.Attrs {
				sd.Attrs[a.Key] = a.Value
			}
		}
		d.Spans = append(d.Spans, sd)
	}
	return d
}

// FormatTree renders a dump as an indented span tree for terminals
// and the slow-op log.
func FormatTree(d *TraceDump) string {
	children := make(map[uint64][]SpanDump)
	for _, sp := range d.Spans {
		children[sp.Parent] = append(children[sp.Parent], sp)
	}
	for _, c := range children {
		sort.Slice(c, func(i, j int) bool { return c[i].StartUs < c[j].StartUs })
	}
	var b strings.Builder
	fmt.Fprintf(&b, "trace %s  start=%s  total=%dus\n", d.ID, d.Start.Format(time.RFC3339Nano), d.DurationUs)
	var walk func(parent uint64, depth int)
	walk = func(parent uint64, depth int) {
		for _, sp := range children[parent] {
			fmt.Fprintf(&b, "%s%-24s +%-8d %8dus", strings.Repeat("  ", depth+1), sp.Name, sp.StartUs, sp.DurUs)
			if len(sp.Attrs) > 0 {
				keys := make([]string, 0, len(sp.Attrs))
				for k := range sp.Attrs {
					keys = append(keys, k)
				}
				sort.Strings(keys)
				for _, k := range keys {
					fmt.Fprintf(&b, "  %s=%s", k, sp.Attrs[k])
				}
			}
			b.WriteByte('\n')
			walk(sp.ID, depth+1)
		}
	}
	walk(0, 0)
	if d.Dropped > 0 {
		fmt.Fprintf(&b, "  (%d spans dropped)\n", d.Dropped)
	}
	return b.String()
}
