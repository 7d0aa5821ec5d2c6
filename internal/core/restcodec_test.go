package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"
)

// shapes returns a fresh zero value of each of the codec's shapes.
func shapes() []RESTShape {
	return []RESTShape{
		new(ScanPage), new(OpResult), new(BatchPutReply), new(BatchGetReply),
		new(BatchPutRequest), new(BatchGetRequest), new(TxRequest), new(TxReply), new(ErrorReply),
	}
}

// checkDecode holds the codec's decoder for one shape to encoding/json on
// one input: if the hand parser accepts, its value is encoding/json's; if
// it declines, it left the value alone and decodeREST answers exactly as
// encoding/json does, error text included.
func checkDecode(t *testing.T, data []byte, zero RESTShape) (accepted bool) {
	t.Helper()
	typ := reflect.TypeOf(zero).Elem()
	ref := reflect.New(typ).Interface()
	refErr := json.NewDecoder(bytes.NewReader(data)).Decode(ref)

	hand := reflect.New(typ).Interface().(RESTShape)
	accepted = hand.parseJSON(&jsonParser{buf: data})
	switch {
	case accepted && refErr != nil:
		t.Fatalf("%s: hand parser accepted %q, encoding/json refuses it: %v", typ.Name(), data, refErr)
	case accepted && !reflect.DeepEqual(hand, ref):
		t.Fatalf("%s: %q hand-decodes to %+v, encoding/json gives %+v", typ.Name(), data, hand, ref)
	case !accepted && !reflect.ValueOf(hand).Elem().IsZero():
		t.Fatalf("%s: hand parser declined %q but left %+v behind", typ.Name(), data, hand)
	}

	got := reflect.New(typ).Interface().(RESTShape)
	err := decodeREST(data, got)
	if (err == nil) != (refErr == nil) || err != nil && err.Error() != refErr.Error() {
		t.Fatalf("%s: decodeREST(%q) = %v, encoding/json says %v", typ.Name(), data, err, refErr)
	}
	if !reflect.DeepEqual(got, ref) {
		t.Fatalf("%s: decodeREST(%q) = %+v, encoding/json gives %+v", typ.Name(), data, got, ref)
	}
	return accepted
}

// checkEncode holds the codec's encoder to encoding/json on one value,
// byte for byte, and its own decoder to its output: accepted by the hand
// parser, not the fallback, and — when lossless is set — the identity.
func checkEncode(t *testing.T, v RESTShape, lossless bool) {
	t.Helper()
	want, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("%+v does not marshal: %v", v, err)
	}
	got := AppendREST(nil, v)
	if !bytes.Equal(got, want) {
		t.Fatalf("%T encodes to\n%s\nencoding/json writes\n%s", v, got, want)
	}
	if !checkDecode(t, got, v) {
		t.Fatalf("%T: the hand parser declined the encoder's own output %s", v, got)
	}
	back := reflect.New(reflect.TypeOf(v).Elem()).Interface().(RESTShape)
	if err := decodeREST(got, back); err != nil || lossless && !reflect.DeepEqual(back, v) {
		t.Fatalf("%T: %+v came back from %s as %+v (%v)", v, v, got, back, err)
	}
}

// codecSeeds are documents and keys the REST surface has met: the bodies
// of TestWireSurface, testbed's hostileKeys, the FuzzJSONKey corpus, and
// one canonical instance of each shape with the variations a third-party
// peer may send.
var codecSeeds = []string{
	`{"keys":`, `not json`, ``, `null`, `[]`, `{}`, `{`, `"`,
	`"user/0001"`, `"esc\"aped"`, `"unié"`, "\"bad\xffutf8\"", `{"b64":"/w=="}`, `{"b64":"!"}`, `{"b64":7}`,
	"bin\xff\x00key", "\xf0\x28\x8c\x28",
	"plain", "a/b", "a//b", "a/./b", "a/../b", "..", ".", "trail/", "/lead", "pct%key", "pct%2Fkey",
	"sp ace", "plus+and&amp", "q?uery#frag", "\xff\xfe\x80bin", "mixed/\xf0\x28\x8c\x28/invalid-utf8", "co:lon;semi",
	`{"entries":[{"key":"a","version":1,"size":2,"policy":"p","class":"ec:4+2"},{"key":{"b64":"//4="},"version":0,"size":0}],"nextToken":"t","shardEpoch":7}`,
	`{"entries":null}`, `{"entries":[]}`, ` { "entries" : [ ] , "nextToken" : "x" } `,
	`{"entries":[{"key":"a","version":1,"size":2,"future":{"x":[1,2.5e3,"s\n",null,true]}}],"more":false}`,
	`{"entries":[{"key":"a","Key":"b"}]}`, `{"entries":[{"key":"a","key":"b"}]}`, `{"entries":[{"Key":"a"}]}`,
	`{"key":"k","version":3}`, `{"key":"k","version":0,"op":9}`, `{"key":"k","version":0,"error":{"code":"denied","message":"no"}}`,
	`{"error":{"code":"not_found","message":"pesos: <absent> 😀 \/"}}`, `{"error":null}`, `{"error":{"code":"x","message":5}}`,
	`{"key":"k","version":1.0}`, `{"key":"k","version":01}`, `{"key":"k","version":-0}`, `{"key":"k","version":9223372036854775808}`,
	`{"results":[{"key":"k","version":1},{"key":"j","version":0,"error":{"code":"version_conflict","message":"m"}}]}`,
	`{"results":[{"key":"k","value":"dmFsdWU=","version":1,"policy":"p"},{"key":"j","version":0,"error":{"code":"denied","message":"m"}}]}`,
	`{"results":null}`, `{"results":[]} trailing`,
	`{"ops":[{"key":"k","value":"dg=="},{"key":{"b64":"/w=="},"value":null,"version":2,"hasVersion":true,"policy":"p"}]}`,
	`{"ops":[{"key":"k","value":"d\ng=="}]}`, `{"ops":[{"key":"k","value":[1,2]}]}`, `{"ops":[{"key":null,"value":""}]}`,
	`{"keys":["a",{"b64":"/w=="},"c"]}`, `{"keys":[]}`, `{"keys":["a" "b"]}`, `{"keys":["\ud800"]}`,
	`{"keys":[],"ops":[]}`, `{"keys":null,"ops":null}`, `{"ops":[{"key":"k","value":"dg==","version":4,"hasVersion":true,"policy":"p"}],"keys":[{"b64":"//4="}]}`,
	`{"reads":[],"writes":[]}`, `{"reads":[{"key":{"b64":"/w=="},"value":"dg==","version":2,"policy":"p"},{"key":"gone","version":0,"error":{"code":"not_found","message":"m"}}],"writes":[{"key":"k","version":5}]}`,
}

// FuzzRESTCodec proves the codec against encoding/json, not against
// itself. (1) For arbitrary field values of each shape the encoder's
// output is json.Marshal's, byte for byte. (2) For arbitrary bytes, what
// the hand decoder accepts it decodes as encoding/json does, and what it
// declines is answered by encoding/json — the batch routes' "bad request
// body" text included. (3) Encode then decode is the identity.
func FuzzRESTCodec(f *testing.F) {
	for i, seed := range codecSeeds {
		f.Add([]byte(seed), seed, seed, []byte(seed), int64(i)-3, uint8(i))
	}
	f.Fuzz(func(t *testing.T, data []byte, key, text string, value []byte, n int64, flags uint8) {
		// (2) arbitrary bytes, every shape.
		for _, zero := range shapes() {
			checkDecode(t, data, zero)
		}
		for _, body := range []RESTShape{new(BatchPutRequest), new(BatchGetRequest), new(TxRequest)} {
			ref := reflect.New(reflect.TypeOf(body).Elem()).Interface()
			refErr := json.NewDecoder(bytes.NewReader(data)).Decode(ref)
			err := decodeBody(httptest.NewRequest("POST", "/v2/batch", bytes.NewReader(data)), body)
			if (err == nil) != (refErr == nil) ||
				err != nil && err.Error() != ErrInvalidArgument.Error()+": bad request body: "+refErr.Error() {
				t.Fatalf("%T body %q: %v, encoding/json says %v", body, data, err, refErr)
			}
		}

		// (1) and (3) arbitrary values. The flags pick among nil, empty and
		// filled slices and among absent and present optional members.
		bit := func(i uint) bool { return flags&(1<<i) != 0 }
		// Invalid UTF-8 in a text member is written as U+FFFD by both
		// encoders, so only valid text comes back as itself; an empty
		// value under omitempty comes back nil.
		lossless := utf8.ValidString(text)
		var werr *WireError
		if bit(0) {
			werr = &WireError{Code: ErrorCode(text), Message: text + key}
			lossless = lossless && utf8.ValidString(key)
		}
		var op uint64
		if bit(1) {
			op = uint64(n)
		}
		k := JSONKey(key)
		res := OpResult{Key: k, Version: n, OpID: op, Err: werr}
		entry := ScanEntry{Key: k, Version: n, Size: -n, PolicyID: text}
		if bit(2) {
			entry.Class = "ec:4+2"
		}
		if !bit(3) {
			value = nil
		}
		got := BatchGetResult{Key: k, Value: value, Version: n, PolicyID: text, Err: werr}
		put := BatchPutOp{Key: k, Value: value, Version: n, HasVersion: bit(1), PolicyID: text}
		count := int(flags >> 6) // 0: nil slice, 1: empty, 2 and 3: one and two elements
		checkEncode(t, &res, lossless)
		checkEncode(t, &ErrorReply{Error: WireError{Code: ErrorCode(text), Message: key}}, utf8.ValidString(text) && utf8.ValidString(key))
		checkEncode(t, &ScanPage{Entries: repeat(entry, count), NextToken: text, ShardEpoch: op}, lossless)
		checkEncode(t, &BatchPutReply{Results: repeat(res, count)}, lossless)
		checkEncode(t, &BatchGetReply{Results: repeat(got, count)}, lossless && (value == nil || len(value) > 0))
		checkEncode(t, &BatchPutRequest{Ops: repeat(put, count)}, lossless)
		checkEncode(t, &BatchGetRequest{Keys: repeat(k, count)}, true)
		// The transaction's shapes take their two arrays at different
		// lengths: count and its complement.
		checkEncode(t, &TxRequest{Keys: repeat(k, 3-count), Ops: repeat(put, count)}, lossless)
		checkEncode(t, &TxReply{Reads: repeat(got, count), Writes: repeat(res, 3-count)}, lossless && (value == nil || len(value) > 0))
	})
}

// repeat returns nil for 0, else count-1 copies of v: an empty slice
// for 1.
func repeat[T any](v T, count int) []T {
	if count == 0 {
		return nil
	}
	out := make([]T, 0, count)
	for ; count > 1; count-- {
		out = append(out, v)
	}
	return out
}

// TestRESTCodecDeclines pins which side of the line a few inputs fall
// on: the canonical form and its tolerated variations are hand-decoded,
// the rest is encoding/json's — and either way the values agree.
func TestRESTCodecDeclines(t *testing.T) {
	for _, tc := range []struct {
		doc    string
		v      RESTShape
		accept bool
	}{
		{`{"entries":[{"key":"a","version":1,"size":2}],"nextToken":"t"}`, new(ScanPage), true},
		{" {\n\t\"entries\" : [ ] }\r\n", new(ScanPage), true},
		{`{"shardEpoch":3,"entries":null}`, new(ScanPage), true},
		{`{"entries":[{"key":"a","version":1,"size":2,"etag":{"x":[1,-2.5e+3,"s\n",null]}}],"more":false}`, new(ScanPage), true},
		{`{"entries":[{"key":"a\n\/","version":1,"size":2}]}`, new(ScanPage), true},
		{`{"entries":[{"key":"a","Key":"b"}]}`, new(ScanPage), false},     // folds to a known member
		{`{"entries":[{"key":"a","key":"b"}]}`, new(ScanPage), false},     // repeated member
		{"{\"entries\":[{\"key\":\"\xff\"}]}", new(ScanPage), false},      // repaired to U+FFFD
		{`{"entries":[{"key":"\ud83d\ude00"}]}`, new(ScanPage), false},    // surrogate pair
		{`{"entries":[{"key":"a","version":1e2}]}`, new(ScanPage), false}, // a type error to encoding/json
		{`{"entries":[{"key":"a","x":[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[1]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]}]}`, new(ScanPage), false},
		{`{"key":"k","version":3}`, new(OpResult), true},
		{`{"error":{"code":"denied","message":"m"}}`, new(OpResult), true}, // the envelope read as a result
		{`{"key":"k","version":3} {"key":"j"}`, new(OpResult), false},      // a Decoder stops at the first value
		{`{"error":{"code":"denied","message":"m"}}`, new(ErrorReply), true},
		{`<html>502 Bad Gateway</html>`, new(ErrorReply), false},
		{`{"ops":[{"key":"k","value":"dg=="}]}`, new(BatchPutRequest), true},
		{`{"ops":[{"key":"k","value":"d\ng=="}]}`, new(BatchPutRequest), false}, // base64 skips the newline
		{`{"keys":["a",{"b64":"/w=="}]}`, new(BatchGetRequest), true},
		{`{"keys":[{"b64":"/w==","b64":"/g=="}]}`, new(BatchGetRequest), false},
		{`{"ops":[{"key":"k","value":"dg==","version":1,"hasVersion":true}],"keys":["a",{"b64":"/w=="}]}`, new(TxRequest), true},
		{`{"keys":["a"],"ops":[],"keys":["b"]}`, new(TxRequest), false}, // repeated member
		{`{"reads":[{"key":"a","value":"dg==","version":1}],"writes":[{"key":"k","version":2}]}`, new(TxReply), true},
		{`{"reads":null,"Writes":[]}`, new(TxReply), false}, // folds to a known member
	} {
		if got := checkDecode(t, []byte(tc.doc), tc.v); got != tc.accept {
			t.Errorf("%T %s: hand parser accepted=%t, want %t", tc.v, tc.doc, got, tc.accept)
		}
	}
}

// TestListPageAllocBudget pins what the REST hop pays per listing page in
// the codec: a 100-entry page of the benchmark's shape, encoded into a
// reused buffer and decoded from it. With encoding/json the pair cost 426
// allocations — 200 to encode (one Marshaler call and one string marshal
// per key), 226 to decode. Now the encoder allocates nothing and the
// decoder one string per key plus the page's fixed few.
func TestListPageAllocBudget(t *testing.T) {
	page := &ScanPage{NextToken: strings.Repeat("t", 88), ShardEpoch: 3}
	for i := 0; i < 100; i++ {
		page.Entries = append(page.Entries, ScanEntry{
			Key: JSONKey(fmt.Sprintf("user%012d", i*7919)), Version: int64(i % 5), Size: 1024,
			PolicyID: strings.Repeat("ab", 32),
		})
	}
	buf := AppendREST(make([]byte, 0, 16<<10), page)
	if len(buf) < 12<<10 || len(buf) > 13<<10 {
		t.Fatalf("the page is %d bytes, want about 12.7 KB", len(buf))
	}
	if n := testing.AllocsPerRun(50, func() { buf = AppendREST(buf[:0], page) }); n != 0 {
		t.Errorf("encoding a page allocates %.0f times, want 0", n)
	}
	var back ScanPage
	decode := func() {
		if err := decodeREST(buf, &back); err != nil {
			t.Fatal(err)
		}
	}
	decode()
	if !reflect.DeepEqual(&back, page) {
		t.Fatalf("the page came back as %+v", back)
	}
	if perEntry := testing.AllocsPerRun(50, decode) / 100; perEntry > 2.5 {
		t.Errorf("decoding a page allocates %.2f times per entry, budget 2.5 for the encode and decode together", perEntry)
	} else {
		t.Logf("%d-byte page: %.2f allocations per entry to decode, none to encode", len(buf), perEntry)
	}
}

// TestRepliesKnowTheirLength: every JSON reply — a codec shape, a cold
// route's, an error — leaves with Content-Length in one piece, however
// long, and a cold value encoding/json refuses is a 500 envelope, not a
// 200 with nothing in it.
func TestRepliesKnowTheirLength(t *testing.T) {
	long := &ScanPage{}
	for i := 0; i < 100; i++ { // well past net/http's 2 KiB pre-chunking buffer
		long.Entries = append(long.Entries, ScanEntry{Key: JSONKey(fmt.Sprintf("user%012d", i)), Size: 1024})
	}
	for name, tc := range map[string]struct {
		write func(w *httptest.ResponseRecorder)
		code  int
	}{
		"shape":       {func(w *httptest.ResponseRecorder) { writeShape(w, 200, long) }, 200},
		"cold":        {func(w *httptest.ResponseRecorder) { reply(w, map[string]any{"versions": make([]int64, 1000)}) }, 200},
		"error":       {func(w *httptest.ResponseRecorder) { writeError(w, ErrNotFound) }, 404},
		"unencodable": {func(w *httptest.ResponseRecorder) { reply(w, map[string]any{"ops_per_sec": math.NaN()}) }, 500},
	} {
		rec := httptest.NewRecorder()
		tc.write(rec)
		body := rec.Body.Bytes()
		if rec.Code != tc.code || rec.Header().Get("Content-Length") != strconv.Itoa(len(body)) || !json.Valid(body) || body[len(body)-1] != '\n' {
			t.Errorf("%s: HTTP %d, Content-Length %q, %d-byte body %.60q", name, rec.Code, rec.Header().Get("Content-Length"), len(body), body)
		}
		if tc.code >= 400 {
			var env ErrorReply
			if err := decodeREST(body, &env); err != nil || env.Error.Message == "" || env.Error.Code.HTTPStatus() != tc.code {
				t.Errorf("%s: body %s is not the envelope of a %d (%v)", name, body, tc.code, err)
			}
		}
	}
}
