package kinetic

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/kinetic/wire"
)

// getMany asks d for keys under the factory account.
func getMany(d *Drive, keys ...string) *wire.Message {
	req := &wire.Message{Type: wire.TGetMany}
	for _, k := range keys {
		req.Keys = append(req.Keys, []byte(k))
	}
	return d.Handle(signedReq(req))
}

// manyReply renders a multi-key reply as "key=value" for a found key and
// "key-" for an absent one, a "+" appended when the reply is cut.
func manyReply(m *wire.Message) string {
	var b bytes.Buffer
	for i, k := range m.Keys {
		if i > 0 {
			b.WriteByte(',')
		}
		if b.Write(k); i < len(m.Found) && m.Found[i] {
			fmt.Fprintf(&b, "=%s", m.Values[i])
		} else {
			b.WriteByte('-')
		}
	}
	if m.Truncated {
		b.WriteByte('+')
	}
	return b.String()
}

// TestDriveGetMany: every asked key answered in turn, found with its
// value or absent; each key a GET to the stats.
func TestDriveGetMany(t *testing.T) {
	d := NewDrive(Config{})
	seedRecord(t, d, "a", "v-a")
	seedRecord(t, d, "c", "v-c")
	resp := getMany(d, "c", "b", "a")
	if resp.Status != wire.StatusOK || manyReply(resp) != "c=v-c,b-,a=v-a" || len(resp.Values) != 3 || resp.Values[1] != nil {
		t.Fatalf("reply %v %q, values %q", resp.Status, manyReply(resp), resp.Values)
	}
	st := d.Stats()
	if st.Gets.Load() != 3 || st.GetManys.Load() != 1 || st.GetManyKeys.Load() != 3 {
		t.Errorf("stats: %d gets, %d multi-key reads of %d keys; want 3, 1, 3", st.Gets.Load(), st.GetManys.Load(), st.GetManyKeys.Load())
	}
	for _, n := range []int{0, wire.MaxBatchOps + 1} {
		keys := make([]string, n)
		for i := range keys {
			keys[i] = fmt.Sprint(i)
		}
		if resp := getMany(d, keys...); resp.Status != wire.StatusInvalidRequest || len(resp.Keys) != 0 {
			t.Errorf("%d keys: %v with %d keys answered, want refused", n, resp.Status, len(resp.Keys))
		}
	}
	if got := st.GetManys.Load(); got != 1 {
		t.Errorf("refused requests counted: %d multi-key reads", got)
	}
}

// TestDriveGetManyNeedsRead: a multi-key read is a read; listing rights
// do not grant it.
func TestDriveGetManyNeedsRead(t *testing.T) {
	d := NewDrive(Config{})
	seedRecord(t, d, "k", "secret")
	resp := d.Handle(signedReq(&wire.Message{Type: wire.TSecurity, ACLs: []wire.ACL{
		{Identity: "lister", Key: []byte("listersecret"), Perms: wire.PermRange},
		{Identity: "reader", Key: []byte("readersecret"), Perms: wire.PermRead},
	}}))
	if resp.Status != wire.StatusOK {
		t.Fatalf("security: %v %s", resp.Status, resp.StatusMsg)
	}
	for _, c := range []struct {
		user, key string
		want      wire.StatusCode
	}{
		{"lister", "listersecret", wire.StatusNotAuthorized},
		{"reader", "readersecret", wire.StatusOK},
	} {
		req := &wire.Message{Type: wire.TGetMany, Keys: [][]byte{[]byte("k")}, User: c.user}
		req.Sign([]byte(c.key))
		resp := d.Handle(req)
		if resp.Status != c.want || resp.Status != wire.StatusOK && len(resp.Values) > 0 {
			t.Errorf("%s: %v with %d values, want %v", c.user, resp.Status, len(resp.Values), c.want)
		}
	}
	if got := d.Stats().Gets.Load(); got != 1 {
		t.Errorf("%d gets counted, want the permitted one", got)
	}
}

// TestDriveGetManyReplyBudget: a reply stays within the range reply's
// byte budget, cut and marked where the next value would break it; the
// first key goes out whatever its size.
func TestDriveGetManyReplyBudget(t *testing.T) {
	d := NewDrive(Config{})
	const size = 400 << 10
	for i := range 4 {
		if err := d.P2PPut([]byte(fmt.Sprintf("o%d", i)), bytes.Repeat([]byte{byte(i)}, size), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.P2PPut([]byte("huge"), make([]byte, rangeReplyBudget+1), nil); err != nil {
		t.Fatal(err)
	}
	enc := wire.NewEncoder()
	for _, c := range []struct {
		keys []string
		want int
	}{
		{[]string{"o0", "o1", "o2", "o3"}, 2},
		{[]string{"o0", "none", "o1", "o2"}, 3},
		{[]string{"huge", "o0"}, 1},
		{[]string{"o3", "huge"}, 1},
	} {
		resp := getMany(d, c.keys...)
		if len(resp.Keys) != c.want || resp.Truncated != (c.want < len(c.keys)) {
			t.Errorf("%q: %d keys answered, cut %t; want %d", c.keys, len(resp.Keys), resp.Truncated, c.want)
		}
		var frame bytes.Buffer
		if err := enc.WriteUnsigned(&frame, resp); err != nil {
			t.Errorf("%q: the reply cannot be framed: %v", c.keys, err)
		}
	}
}

// TestDriveGetManyMedia: each key answered is a full media read — no
// discount for sharing a request — but the request reserves the medium
// once, for all of them.
func TestDriveGetManyMedia(t *testing.T) {
	h := NewHDDMedia(0.1)
	d := NewDrive(Config{Media: h})
	const n = 8
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprint("k", i)
	}
	start := time.Now()
	resp := getMany(d, keys...)
	took := time.Since(start)
	h.mu.Lock()
	horizon := h.busy.Sub(start)
	h.mu.Unlock()
	want := n * h.ServiceTime(OpRead, 0)
	if resp.Status != wire.StatusOK || len(resp.Keys) != n {
		t.Fatalf("reply %v with %d keys", resp.Status, len(resp.Keys))
	}
	if horizon < want || horizon > took {
		t.Errorf("the medium is reserved %v past the request's start, want %v: one read a key", horizon, want)
	}
	if took < want {
		t.Errorf("the request took %v, under the %v its reads occupy the medium", took, want)
	}
}

// TestFaultsGetMany: a drive's read corruption reaches the values a
// multi-key read returns, and its range lies reach the reply's keys —
// as on a range reply, the store untouched.
func TestFaultsGetMany(t *testing.T) {
	d := NewDrive(Config{Name: "lie"})
	for _, k := range []string{"a", "c"} {
		seedRecord(t, d, k, "v-"+k)
	}
	d.SetFaults(Faults{CorruptEveryN: 1})
	resp := getMany(d, "a", "b", "c")
	if bytes.Equal(resp.Values[0], []byte("v-a")) || bytes.Equal(resp.Values[2], []byte("v-c")) || resp.Values[1] != nil {
		t.Errorf("CorruptEveryN 1: values %q", resp.Values)
	}
	if st := d.FaultStats(); st.Corrupted != 2 {
		t.Errorf("%d values corrupted, want the 2 found", st.Corrupted)
	}
	for _, c := range []struct {
		lie           RangeLie
		first, second string // replies to (a, b, c) and (c, b)
	}{
		{RangeReorder, "c=v-c,b-,a=v-a", "b-,c=v-c"},
		{RangeOvershoot, "a=v-a,b-,c=v-c,c\xff=overshoot", "c=v-c,b-,b\xff=overshoot"},
		{RangeStuck, "a=v-a,b-,c=v-c+", "a=v-a,b-,c=v-c+"},
		{RangeCutToNothing, "+", "+"},
	} {
		d.SetFaults(Faults{RangeLie: c.lie})
		first, second := manyReply(getMany(d, "a", "b", "c")), manyReply(getMany(d, "c", "b"))
		if first != c.first || second != c.second {
			t.Errorf("%s: replies %q and %q, want %q and %q", c.lie, first, second, c.first, c.second)
		}
		if st := d.FaultStats(); st.RangeLies != 2 {
			t.Errorf("%s: %d lies counted, want 2", c.lie, st.RangeLies)
		}
	}
	d.ClearFaults()
	if honest := manyReply(getMany(d, "a", "b", "c")); honest != "a=v-a,b-,c=v-c" {
		t.Errorf("the honest reply afterwards is %q", honest)
	}
}
