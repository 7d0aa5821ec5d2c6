package core

import (
	"bytes"
	"context"
	"crypto/tls"
	"crypto/x509"
	"encoding/base64"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/authority"
	"repro/internal/kinetic"
	"repro/internal/store"
	"repro/internal/tlsutil"
)

// TestTxBoundary holds the one transaction entrance to what every other
// write boundary enforces — the key rule, the op cap, the body bound, the
// request's certificates — and to its own contract: nothing of a
// transaction outlives its request, and an abort has no effect.
func TestTxBoundary(t *testing.T) {
	// Half the hash space, so that some keys are another shard's.
	h := newHarness(t, 1, func(cfg *Config) {
		cfg.Shard = &ShardInfo{ID: 0, Epoch: 1, Ranges: []HashRange{{0, store.ShardSpace / 2}}}
	})
	ctl, ctx := h.ctl, context.Background()
	// key returns a key under prefix that this shard owns, or does not.
	key := func(prefix string, owned bool) string {
		for i := 0; ; i++ {
			if k := fmt.Sprintf("%s%d", prefix, i); ctl.owns(k) == owned {
				return k
			}
		}
	}
	alice, eve := ctl.Session("a11ce0"), ctl.Session("e0e0")
	pid, err := ctl.PutPolicy(ctx, "read :- sessionKeyIs(k'a11ce0')\nupdate :- sessionKeyIs(k'a11ce0')")
	if err != nil {
		t.Fatal(err)
	}
	victim, mine, other := key("victim", true), key("mine", true), key("other", true)
	for v := 0; v < 3; v++ {
		if _, err := alice.Put(ctx, victim, []byte(fmt.Sprintf("victim v%d", v)), PutOptions{PolicyID: pid}); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range []string{mine, other} {
		if _, err := eve.Put(ctx, k, []byte("eve's "+k), PutOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	put := func(k string) BatchPutOp { return BatchPutOp{Key: JSONKey(k), Value: []byte("tx wrote " + k)} }

	// state is everything an abort must leave alone: each key's versions
	// and head, what the drive was sent, and every counter that is not a
	// policy check's or a redirect's own.
	type state struct {
		objects string
		batches uint64
		stats   StatsSnapshot
	}
	snap := func() (s state) {
		for _, k := range []string{victim, mine, other} {
			vers, err := ctl.listVersions(ctx, "a11ce0", k, nil)
			if err != nil {
				t.Fatal(err)
			}
			rec, err := ctl.drives.ReadVersion(ctx, k, vers[len(vers)-1], ctl.placement(k))
			if err != nil {
				t.Fatal(err)
			}
			s.objects += fmt.Sprintf("%s %v %q\n", k, vers, rec.Payload)
		}
		s.batches = h.drives[0].Stats().BatchOps.Load()
		s.stats = ctl.stats.Snapshot()
		s.stats.PolicyChecks, s.stats.PolicyDenials, s.stats.PolicyEvals = 0, 0, 0
		s.stats.ResidualHits, s.stats.IndexSkippedClauses, s.stats.WrongShard = 0, 0, 0
		return s
	}

	many := make([]BatchPutOp, MaxBatchRequestOps)
	for i := range many {
		many[i] = put(key(fmt.Sprintf("many/%d/", i), true))
	}
	for _, row := range []struct {
		name   string
		reads  []string
		writes []BatchPutOp
		code   ErrorCode
	}{
		// A write under victim\0a would land inside victim's version range
		// on the drive: the session with no right on victim adds a version.
		{"NUL key", nil, []BatchPutOp{put(victim + "\x00a")}, CodeInvalidArgument},
		{"NUL read key", []string{victim + "\x00a"}, nil, CodeInvalidArgument},
		{"empty key", nil, []BatchPutOp{put(mine), put("")}, CodeInvalidArgument},
		{"duplicate write key", nil, []BatchPutOp{put(mine), put(other), put(mine)}, CodeInvalidArgument},
		{"key read and written", []string{other, mine}, []BatchPutOp{put(mine)}, CodeInvalidArgument},
		{"257 ops", []string{mine}, many, CodeInvalidArgument},
		{"denied write among allowed ones", nil, []BatchPutOp{put(mine), put(victim), put(other)}, CodeDenied},
		{"denied read", []string{victim}, []BatchPutOp{put(mine)}, CodeDenied},
		{"version conflict", []string{other}, []BatchPutOp{{Key: JSONKey(mine), Value: []byte("x"), Version: 5, HasVersion: true}}, CodeVersionConflict},
		{"foreign write key", []string{other}, []BatchPutOp{put(mine), put(key("foreign", false))}, CodeWrongShard},
		{"foreign read key", []string{key("foreign", false)}, []BatchPutOp{put(mine)}, CodeWrongShard},
		{"unknown policy", nil, []BatchPutOp{put(other), {Key: JSONKey(mine), Value: []byte("x"), PolicyID: "nope"}}, CodeNoSuchPolicy},
	} {
		t.Run(row.name, func(t *testing.T) {
			before := snap()
			reads, writes, err := eve.Tx(ctx, row.reads, row.writes, nil)
			if CodeFor(err) != row.code || reads != nil || writes != nil {
				t.Fatalf("answered %v with results %+v %+v, want code %q and none", err, reads, writes, row.code)
			}
			after := snap()
			if after.stats.TxAborts != before.stats.TxAborts+1 {
				t.Errorf("TxAborts moved by %d, want 1", after.stats.TxAborts-before.stats.TxAborts)
			}
			after.stats.TxAborts = before.stats.TxAborts
			if after != before {
				t.Errorf("the abort had an effect:\nbefore %+v\nafter  %+v", before, after)
			}
			if n := ctl.commits.held(); n != 0 {
				t.Errorf("the abort left %d keys locked", n)
			}
		})
	}

	// What commits: an explicit next version and a policy id are honoured
	// like any batch op's, results come back in request order, and an
	// absent read key fails alone.
	t.Run("commit", func(t *testing.T) {
		fresh := key("fresh", true)
		reads, writes, err := eve.Tx(ctx, []string{other, key("absent", true), mine}, []BatchPutOp{
			{Key: JSONKey(fresh), Value: []byte("created"), HasVersion: true, PolicyID: pid},
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(reads) != 3 || string(reads[0].Value) != "eve's "+other || string(reads[2].Value) != "eve's "+mine ||
			reads[1].Err == nil || reads[1].Err.Code != CodeNotFound || reads[1].Value != nil {
			t.Errorf("reads %+v", reads)
		}
		if len(writes) != 1 || string(writes[0].Key) != fresh || writes[0].Version != 0 || writes[0].Err != nil {
			t.Errorf("writes %+v", writes)
		}
		if _, m, err := alice.Get(ctx, fresh, GetOptions{}); err != nil || m.PolicyID != pid {
			t.Errorf("the write's policy id was not attached: %+v, %v", m, err)
		}
	})

	// The request is the whole transaction: a session that committed 500
	// of them holds what it held before the first.
	t.Run("nothing retained", func(t *testing.T) {
		for _, f := range reflect.VisibleFields(reflect.TypeOf(Session{})) {
			switch f.Name {
			case "ctl", "clientKey", "lastActive":
			default:
				t.Errorf("Session.%s: a session is an identity and a last-active stamp", f.Name)
			}
		}
		value := bytes.Repeat([]byte("v"), 64<<10)
		for i := 0; i < 500; i++ {
			if _, _, err := eve.Tx(ctx, []string{other}, []BatchPutOp{{Key: JSONKey(mine), Value: value}}, nil); err != nil {
				t.Fatal(err)
			}
		}
		if n := ctl.commits.held(); n != 0 {
			t.Errorf("500 commits left %d keys locked", n)
		}
	})

	// Over the wire: certificates ride in the header like on every route,
	// and a body that declares itself over the bound is refused unread.
	rest := NewREST(ctl)
	ca, err := tlsutil.NewCA("test-ca")
	if err != nil {
		t.Fatal(err)
	}
	id, err := ca.IssueClient("carol")
	if err != nil {
		t.Fatal(err)
	}
	post := func(body io.Reader, length int64, certs ...*authority.Certificate) (int, string) {
		req := httptest.NewRequest(http.MethodPost, "/v2/tx", body)
		req.ContentLength = length
		req.TLS = &tls.ConnectionState{PeerCertificates: []*x509.Certificate{id.Cert}}
		for _, c := range certs {
			raw, err := c.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Add(CertHeader, base64.StdEncoding.EncodeToString(raw))
		}
		rec := httptest.NewRecorder()
		rest.ServeHTTP(rec, req)
		return rec.Code, rec.Body.String()
	}
	t.Run("body over maxBatchBody", func(t *testing.T) {
		code, body := post(unreadable{t}, maxBatchBody+1)
		if code != http.StatusBadRequest || !strings.Contains(body, string(CodeInvalidArgument)) {
			t.Errorf("HTTP %d %s", code, body)
		}
	})
	t.Run("certificate-gated write", func(t *testing.T) {
		ts, err := authority.New("time-server")
		if err != nil {
			t.Fatal(err)
		}
		now := time.Now()
		gated, err := ctl.PutPolicy(ctx, fmt.Sprintf(
			"read :- sessionKeyIs(U)\nupdate :- certificateSays(k'%s', 300, 'time'(T)) and ge(T, %d)", ts.Fingerprint(), now.Unix()-10))
		if err != nil {
			t.Fatal(err)
		}
		k := key("gated", true)
		if _, err := eve.Put(ctx, k, []byte("v0"), PutOptions{PolicyID: gated}); err != nil {
			t.Fatal(err)
		}
		body := string(AppendREST(nil, &TxRequest{Ops: []BatchPutOp{{Key: JSONKey(k), Value: []byte("v1")}}}))
		if code, reply := post(strings.NewReader(body), int64(len(body))); code != http.StatusForbidden {
			t.Fatalf("without the certificate: HTTP %d %s", code, reply)
		}
		cert, err := ts.Sign(authority.TimeFact(now), now, [32]byte{})
		if err != nil {
			t.Fatal(err)
		}
		code, reply := post(strings.NewReader(body), int64(len(body)), cert)
		var out TxReply
		if err := decodeREST([]byte(reply), &out); code != http.StatusOK || err != nil || len(out.Writes) != 1 || out.Writes[0].Version != 1 {
			t.Fatalf("with the certificate: HTTP %d %s (%v)", code, reply, err)
		}
	})
}

// TestTxOverlapRejected: a transaction that reads a key it also writes
// is refused as invalid_argument, in either order of the sets' lists,
// before it takes any lock — it is answered at once while another writer
// holds that key — and it leaves the key as it was.
func TestTxOverlapRejected(t *testing.T) {
	h := newHarness(t, 1, nil)
	ctx := context.Background()
	s := h.ctl.Session("0e0e")
	if _, err := s.Put(ctx, "k", []byte("before"), PutOptions{}); err != nil {
		t.Fatal(err)
	}
	unlock := h.ctl.commits.lock([]string{"k"}, nil)
	for _, reads := range [][]string{{"k"}, {"a", "k"}, {"k", "z"}} {
		done := make(chan error, 1)
		go func() {
			_, _, err := s.Tx(ctx, reads, []BatchPutOp{{Key: "z0"}, {Key: "k", Value: []byte("tx")}}, nil)
			done <- err
		}()
		select {
		case err := <-done:
			if CodeFor(err) != CodeInvalidArgument {
				t.Errorf("reads %q: answered %v, want invalid_argument", reads, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("reads %q: the refusal waited for the key's lock", reads)
		}
	}
	unlock()
	if v, _, err := s.Get(ctx, "k", GetOptions{}); err != nil || string(v) != "before" {
		t.Errorf("k after the refusals: %q, %v", v, err)
	}
	if n := h.ctl.commits.held(); n != 0 {
		t.Errorf("the refusals left %d keys locked in commits", n)
	}
}

// TestTxReadSetHeldAgainstWriters: a transaction's read set is locked
// against every writer, not only against other transactions. A batch put
// and a delete of the read key, sent while the transaction's write waits
// on a slow drive, return only after the transaction releases its keys,
// and the transaction reads the value it planned.
func TestTxReadSetHeldAgainstWriters(t *testing.T) {
	const delay = 300 * time.Millisecond
	h := newHarness(t, 2, nil)
	ctl, ctx := h.ctl, context.Background()
	// key returns a key under prefix placed on drive d.
	key := func(prefix string, d int) string {
		for i := 0; ; i++ {
			if k := fmt.Sprintf("%s%d", prefix, i); ctl.placement(k)[0] == d {
				return k
			}
		}
	}
	read, write := key("read", 0), key("write", 1)
	s := ctl.Session("tx")
	for _, k := range []string{read, write} {
		if _, err := s.Put(ctx, k, []byte("before"), PutOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	h.drives[1].SetFaults(kinetic.Faults{ExtraDelay: delay})
	batches := h.drives[1].Stats().Batches.Load()

	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rr, _, err := s.Tx(ctx, []string{read}, []BatchPutOp{{Key: JSONKey(write), Value: []byte("tx")}}, nil)
		if err != nil || rr[0].Err != nil || string(rr[0].Value) != "before" {
			t.Errorf("the transaction read %+v, %v; want %q", rr, err, "before")
		}
	}()
	// Once the slow drive has the transaction's write, the transaction
	// holds its keys, and it holds them for the drive's delay.
	if !eventually(func() bool { return h.drives[1].Stats().Batches.Load() > batches }) {
		t.Fatal("the transaction's write never reached its drive")
	}
	for name, write := range map[string]func() error{
		"batch put": func() error {
			_, err := s.BatchPut(ctx, []BatchPutOp{{Key: JSONKey(read), Value: []byte("batch")}}, nil)
			return err
		},
		"delete": func() error { return s.Delete(ctx, read, DeleteOptions{}) },
	} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := write()
			if took := time.Since(start); took < delay {
				t.Errorf("the %s of the read key returned %v after the transaction began, before its write could end", name, took)
			}
			if err != nil {
				t.Errorf("the %s: %v", name, err)
			}
		}()
	}
	wg.Wait()
}

// TestTxReadsHeadsInOneWave: a transaction reads the heads of its read
// and write keys in one concurrent wave, and the records of its reads
// concurrently too — the drive reads a plan of one key at a time issues,
// overlapped — and one over cached heads and records reads none.
func TestTxReadsHeadsInOneWave(t *testing.T) {
	const n, delay = 16, 20 * time.Millisecond
	h, gets := waveHarness(t)
	s, ctx := h.ctl.Session("w"), context.Background()
	reads := make([]string, n)
	writes := make([]BatchPutOp, n)
	for i := range n {
		reads[i] = fmt.Sprintf("tx/r/%02d", i)
		if _, err := s.Put(ctx, reads[i], []byte(reads[i]), PutOptions{}); err != nil {
			t.Fatal(err)
		}
		writes[i] = BatchPutOp{Key: JSONKey(fmt.Sprintf("tx/w/%02d", i)), Value: []byte("v")}
	}
	h.ctl.metaCache.Clear()
	h.ctl.objectCache.Clear()
	tx := func(version int64) {
		t.Helper()
		rr, wr, err := s.Tx(ctx, reads, writes, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range rr {
			if r.Err != nil || string(r.Value) != reads[i] || string(r.Key) != reads[i] {
				t.Fatalf("read %d: %+v", i, r)
			}
		}
		for i, w := range wr {
			if w.Err != nil || w.Version != version || w.Key != writes[i].Key {
				t.Fatalf("write %d: %+v", i, w)
			}
		}
	}
	slowDrives(h, delay)

	before, requests, start := gets(), readRequests(h), time.Now()
	tx(0)
	elapsed := time.Since(start)
	// A read key costs its head and its record, one GET each off the
	// replica asked first; a new write key's head costs three.
	if got := gets() - before; got != 2*n+3*n {
		t.Errorf("%d drive GETs for %d reads and %d new writes, want %d", got, n, n, 2*n+3*n)
	}
	// Every head, read or written, rides the wave's two rounds, at most
	// two requests a drive; the records of the reads are a GET each.
	total := uint64(0)
	for i, r := range readRequests(h) {
		total += r - requests[i]
	}
	if want := uint64(2*len(h.drives) + n); total > want {
		t.Errorf("%d read requests for %d reads and %d new writes, want at most %d: two a drive for the heads, one a record", total, n, n, want)
	}
	// One key at a time: a read's head and record take a round each, a
	// new write's head two.
	if sequential := (2*n + 2*n) * delay; elapsed >= sequential/4 {
		t.Errorf("the transaction took %v; one key at a time takes %v", elapsed, sequential)
	}

	before = gets()
	tx(1)
	if got := gets() - before; got != 0 {
		t.Errorf("%d drive GETs for a transaction over cached heads and records, want 0", got)
	}
}

// unreadable is a request body nobody may read.
type unreadable struct{ t *testing.T }

func (u unreadable) Read([]byte) (int, error) {
	u.t.Error("the body was read")
	return 0, io.EOF
}
