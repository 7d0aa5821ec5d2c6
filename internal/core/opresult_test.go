package core

import (
	"encoding/json"
	"testing"
)

// TestJSONKeyDecodesLikeEncodingJSON: a key in its string form decodes
// to what encoding/json makes of the literal — escapes, control bytes
// and broken UTF-8 included — and any key round-trips through marshal.
func TestJSONKeyDecodesLikeEncodingJSON(t *testing.T) {
	for _, lit := range []string{
		`"user/0001"`, `""`, `"ключ/鍵"`, `"with space and / and 'quotes'"`,
		`"esc\"aped"`, `"back\\slash"`, `"unié"`, `"tab\there"`, `"sur😀"`,
		"\"raw\ttab\"", "\"bad\xffutf8\"", `"unterminated`, `"a"b"`, `x`, ``, `"`,
	} {
		var want string
		wantErr := json.Unmarshal([]byte(lit), &want)
		var got JSONKey
		gotErr := got.UnmarshalJSON([]byte(lit))
		if (gotErr == nil) != (wantErr == nil) || (wantErr == nil && string(got) != want) {
			t.Errorf("%s: decoded %q (%v), encoding/json gives %q (%v)", lit, got, gotErr, want, wantErr)
		}
	}
	for _, key := range []string{"plain", "bin\xff\x00key", "q\"uote", ""} {
		raw, err := json.Marshal(JSONKey(key))
		if err != nil {
			t.Fatal(err)
		}
		var back JSONKey
		if err := json.Unmarshal(raw, &back); err != nil || string(back) != key {
			t.Errorf("key %q round-trips through %s as %q (%v)", key, raw, back, err)
		}
	}
}

// FuzzJSONKey: a JSONKey arrives inside client request bodies. Whatever
// the bytes, UnmarshalJSON does not panic and agrees with encoding/json
// on what a string literal means; and any byte string — valid UTF-8 or
// not — comes back from marshal→unmarshal unchanged.
func FuzzJSONKey(f *testing.F) {
	for _, seed := range []string{
		`"user/0001"`, `"esc\"aped"`, `"unié"`, "\"bad\xffutf8\"", `{"b64":"/w=="}`, `{"b64":"!"}`,
		`{"b64":7}`, `{`, `"`, ``, `null`, `[]`, "bin\xff\x00key", "\xf0\x28\x8c\x28",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var k JSONKey
		err := k.UnmarshalJSON(data)
		if len(data) > 0 && data[0] == '"' {
			var want string
			wantErr := json.Unmarshal(data, &want)
			if (err == nil) != (wantErr == nil) || (err == nil && string(k) != want) {
				t.Fatalf("%q: decoded %q (%v), encoding/json gives %q (%v)", data, k, err, want, wantErr)
			}
		}

		raw, err := json.Marshal(JSONKey(data))
		if err != nil {
			t.Fatalf("key %q does not marshal: %v", data, err)
		}
		var back JSONKey
		if err := json.Unmarshal(raw, &back); err != nil || string(back) != string(data) {
			t.Fatalf("key %q round-trips through %s as %q (%v)", data, raw, back, err)
		}
	})
}
