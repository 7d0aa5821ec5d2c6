package core

import (
	"encoding/json"
	"testing"
)

// TestJSONKeyDecodesLikeEncodingJSON: the in-place decode of a plain
// string literal gives what encoding/json gives, and everything that is
// not plain — escapes, control bytes, broken UTF-8, the b64 object form
// — still goes through encoding/json.
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
