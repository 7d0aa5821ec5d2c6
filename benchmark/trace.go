package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
)

// span is one recorded interval of one operation: either the
// benchmark's own span around a call into the system (parent 0) or one
// of the program's existing spans, pulled from the controllers' trace
// stores by the operation's id and hung underneath it.
type span struct {
	op         uint64 // the operation's first 64-bit trace id
	id, parent int32  // unique within the operation; the call span is 1
	name       string
	start, end time.Duration // since the traced phase began
	media      time.Duration // drive spans: the drive's own service time
}

func (s span) dur() time.Duration { return s.end - s.start }

// Names the attribution reports. The program has six span kinds today;
// an op's root span ("get", "put", ...) and the benchmark's call span
// are containers, so their own time lands in unattributed.
var attributed = []string{"policy_eval", "gcommit_wait", "replicate", "drive", "media"}

// attribute splits the call span's wall time among span names. Every
// instant goes to the innermost spans active at it — those with no
// active child — in equal parts when branches run in parallel, so the
// shares always sum to the call's duration. For a sequential tree this
// is each span's duration minus what its children cover. A drive span's
// share is split again into the drive's reported service time ("media")
// and the rest (wire and queueing, "drive"). Time no named span covers
// is returned as unattributed.
func attribute(spans []span) (byName map[string]time.Duration, unattributed time.Duration) {
	byName = make(map[string]time.Duration)
	if len(spans) == 0 {
		return byName, 0
	}
	call := spans[0]
	edges := make([]time.Duration, 0, 2*len(spans))
	for _, s := range spans {
		edges = append(edges, clamp(s.start, call), clamp(s.end, call))
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i] < edges[j] })
	hasActiveChild := make(map[int32]bool, len(spans))
	var active []int
	for e := 0; e+1 < len(edges); e++ {
		lo, hi := edges[e], edges[e+1]
		if hi <= lo {
			continue
		}
		active = active[:0]
		clear(hasActiveChild)
		for i, s := range spans {
			if s.start <= lo && s.end >= hi {
				active = append(active, i)
				hasActiveChild[s.parent] = true
			}
		}
		var leaves []int
		for _, i := range active {
			if !hasActiveChild[spans[i].id] {
				leaves = append(leaves, i)
			}
		}
		share := (hi - lo) / time.Duration(len(leaves))
		for _, i := range leaves {
			byName[spans[i].name] += share
		}
	}
	// Split drive time into media and the rest, in proportion.
	var driveDur, media time.Duration
	for _, s := range spans {
		if s.name == "drive" {
			driveDur += s.dur()
			media += min(s.media, s.dur())
		}
	}
	if driveDur > 0 {
		m := time.Duration(float64(byName["drive"]) * float64(media) / float64(driveDur))
		byName["media"] = m
		byName["drive"] -= m
	}
	total := time.Duration(0)
	for _, name := range attributed {
		total += byName[name]
	}
	return byName, call.dur() - total
}

// covered is how much of the call span (spans[0]) its direct children
// cover: the length of the union of their intervals, clipped to it.
func covered(spans []span) time.Duration {
	call := spans[0]
	var kids []span
	for _, s := range spans[1:] {
		if s.parent == call.id {
			kids = append(kids, span{start: clamp(s.start, call), end: clamp(s.end, call)})
		}
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].start < kids[j].start })
	var total time.Duration
	at := call.start
	for _, k := range kids {
		if k.end > at {
			total += k.end - max(k.start, at)
			at = k.end
		}
	}
	return total
}

func clamp(t time.Duration, within span) time.Duration {
	return min(max(t, within.start), within.end)
}

// tracedPhase is what the traced loop observed.
type tracedPhase struct {
	p *phase
	// call[depth][kind] are the benchmark's call-span durations.
	call [numDepths][numKinds][]time.Duration
	// attr[kind][name] and unattr[kind] are per-operation attributions
	// of session-depth calls (the depth with nothing but core below it).
	attr   [numKinds]map[string][]time.Duration
	unattr [numKinds][]time.Duration
	spans  []span
	// self[depth][kind] are the call spans' self times: the call's
	// duration minus what the program's root spans under it cover, i.e.
	// the time spent above the controllers' request handlers. Taking it
	// per operation removes the operation's own variance (hit or miss,
	// scan length, media queueing) from the comparison between depths.
	self [numDepths][numKinds][]time.Duration
}

// tracer is one worker's span recorder for the traced loop. With off
// set the loop runs the same operations at the same depths but records
// and pulls nothing: the base the tracing overhead is measured against.
type tracer struct {
	off   bool
	t0    time.Time
	ids   []uint64 // trace ids of the current operation's requests
	out   tracedPhase
	stage []span
}

// reqCtx gives one request of the current operation its own trace id:
// the controllers always trace a request that carries an explicit id,
// whatever their sampling rate, and keep its spans under that id.
func (ws *workerState) reqCtx(ctx context.Context) context.Context {
	if ws.tr == nil || ws.tr.off {
		return ctx
	}
	id := obs.NewTraceID()
	ws.tr.ids = append(ws.tr.ids, id)
	return obs.WithTraceID(ctx, id)
}

// tracedStep runs one operation at depth d under the benchmark's own
// call span and hangs the program's spans for it underneath.
func (ws *workerState) tracedStep(ctx context.Context, d depth, o op) {
	tr := ws.tr
	tr.ids = tr.ids[:0]
	start := time.Since(tr.t0)
	err := ws.exec(ctx, ws.wk.eps[d], o)
	end := time.Since(tr.t0)
	if err != nil {
		ws.rec.fail(err)
		return
	}
	ws.rec.add(o.kind, end-start)
	if tr.off {
		return
	}
	tr.out.call[d][o.kind] = append(tr.out.call[d][o.kind], end-start)

	tr.stage = append(tr.stage[:0], span{
		op: tr.ids[0], id: 1, name: d.String() + "." + o.kind.String(), start: start, end: end,
	})
	next := int32(2)
	for _, id := range tr.ids {
		for _, n := range ws.st.dep.mc.Nodes {
			dump := n.Controller.TraceDump(id)
			if dump == nil {
				continue
			}
			base := dump.Start.Sub(tr.t0)
			offset := next
			for _, sd := range dump.Spans {
				s := span{
					op: tr.ids[0], id: offset + int32(sd.ID), parent: 1, name: sd.Name,
					start: base + time.Duration(sd.StartUs)*time.Microsecond,
				}
				s.end = s.start + time.Duration(sd.DurUs)*time.Microsecond
				if sd.Parent != 0 {
					s.parent = offset + int32(sd.Parent)
				}
				if us, err := strconv.ParseInt(sd.Attrs["media_us"], 10, 64); err == nil {
					s.media = time.Duration(us) * time.Microsecond
				}
				tr.stage = append(tr.stage, s)
				next = max(next, s.id+1)
			}
		}
	}
	tr.out.spans = append(tr.out.spans, tr.stage...)
	if len(tr.stage) > 1 {
		tr.out.self[d][o.kind] = append(tr.out.self[d][o.kind], end-start-covered(tr.stage))
	}
	if d != depthSession {
		return
	}
	byName, rest := attribute(tr.stage)
	if tr.out.attr[o.kind] == nil {
		tr.out.attr[o.kind] = make(map[string][]time.Duration)
	}
	for _, name := range attributed {
		tr.out.attr[o.kind][name] = append(tr.out.attr[o.kind][name], byName[name])
	}
	tr.out.unattr[o.kind] = append(tr.out.unattr[o.kind], rest)
}

// tracedLoop is the closed loop with span recording on: every worker
// replays its operation stream, each operation once at every depth,
// rotating which depth goes first. All depths then see the same
// contention and exactly the same operations, and each is as often the
// one that finds the caches cold — so differences between their medians
// are the layers' and not the sample's.
func (st *state) tracedLoop(d time.Duration, off bool) *tracedPhase {
	ctx := context.Background()
	t0 := time.Now()
	deadline := t0.Add(d)
	attempted := make([]int, len(st.ws))
	var wg sync.WaitGroup
	for i, ws := range st.ws {
		ws.tr = &tracer{t0: t0, off: off}
		wg.Add(1)
		go func(i int, ws *workerState) {
			defer wg.Done()
			for n := 0; time.Now().Before(deadline); n++ {
				o := ws.next()
				if o.routerOnly() {
					ws.tracedStep(ctx, depthRouter, o)
					attempted[i]++
					continue
				}
				for j := 0; j < int(numDepths); j++ {
					ws.tracedStep(ctx, depth((n+j)%int(numDepths)), o)
					attempted[i]++
				}
			}
		}(i, ws)
	}
	wg.Wait()
	total := 0
	for _, n := range attempted {
		total += n
	}
	out := &tracedPhase{p: st.collect(time.Since(t0), total)}
	for _, ws := range st.ws {
		w := &ws.tr.out
		for dp := range w.call {
			for k := range w.call[dp] {
				out.call[dp][k] = append(out.call[dp][k], w.call[dp][k]...)
			}
		}
		for k := range w.attr {
			if w.attr[k] == nil {
				continue
			}
			if out.attr[k] == nil {
				out.attr[k] = make(map[string][]time.Duration)
			}
			for name, v := range w.attr[k] {
				out.attr[k][name] = append(out.attr[k][name], v...)
			}
			out.unattr[k] = append(out.unattr[k], w.unattr[k]...)
		}
		for dp := range w.self {
			for k := range w.self[dp] {
				out.self[dp][k] = append(out.self[dp][k], w.self[dp][k]...)
			}
		}
		out.spans = append(out.spans, w.spans...)
		ws.tr = nil
	}
	return out
}

// writeSpans writes the traced run's spans once, as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	for _, s := range spans {
		fmt.Fprintf(w, `{"op":"%016x","id":%d,"parent":%d,"name":%q,"start_us":%.3f,"dur_us":%.3f}`+"\n",
			s.op, s.id, s.parent, s.name, us(s.start), us(s.dur()))
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
