package value

import (
	"encoding/binary"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

func TestRoundTrip(t *testing.T) {
	var h [32]byte
	for i := range h {
		h[i] = byte(i)
	}
	vals := []V{
		Int(0), Int(-42), Int(1 << 60),
		Str(""), Str("hello"), Str("with 'quote'"),
		Hash(h),
		PubKey("abcdef0123456789"),
		Tup("empty"),
		Tup("time", Int(1718000000)),
		Tup("write", Str("obj"), Int(3), Hash(h), PubKey("ff")),
		Tup("nested", Tup("inner", Int(1), Str("x")), Int(2)),
	}
	for _, v := range vals {
		data, err := v.Marshal()
		if err != nil {
			t.Fatalf("marshal %v: %v", v, err)
		}
		got, err := Unmarshal(data)
		if err != nil {
			t.Fatalf("unmarshal %v: %v", v, err)
		}
		if !v.Equal(got) {
			t.Errorf("round trip %v != %v", v, got)
		}
	}
}

func TestEqual(t *testing.T) {
	if Int(1).Equal(Str("1")) {
		t.Error("int equals string")
	}
	if !Tup("a", Int(1)).Equal(Tup("a", Int(1))) {
		t.Error("identical tuples unequal")
	}
	if Tup("a", Int(1)).Equal(Tup("a", Int(2))) {
		t.Error("different tuple args equal")
	}
	if Tup("a", Int(1)).Equal(Tup("b", Int(1))) {
		t.Error("different tuple names equal")
	}
	if Tup("a", Int(1)).Equal(Tup("a", Int(1), Int(2))) {
		t.Error("different arity equal")
	}
}

func TestCompare(t *testing.T) {
	if c, err := Int(1).Compare(Int(2)); err != nil || c >= 0 {
		t.Errorf("1 vs 2: %d %v", c, err)
	}
	if c, err := Str("b").Compare(Str("a")); err != nil || c <= 0 {
		t.Errorf("b vs a: %d %v", c, err)
	}
	if c, err := Int(7).Compare(Int(7)); err != nil || c != 0 {
		t.Errorf("7 vs 7: %d %v", c, err)
	}
	if _, err := Int(1).Compare(Str("1")); err == nil {
		t.Error("cross-kind compare allowed")
	}
	if _, err := Hash([32]byte{}).Compare(Hash([32]byte{})); err == nil {
		t.Error("hash ordering allowed")
	}
}

func TestStringSyntax(t *testing.T) {
	if got := Int(-5).String(); got != "-5" {
		t.Errorf("int: %q", got)
	}
	if got := Str("x").String(); got != "'x'" {
		t.Errorf("str: %q", got)
	}
	if got := Tup("f", Int(1), Str("a")).String(); got != "f(1, 'a')" {
		t.Errorf("tuple: %q", got)
	}
	if !strings.HasPrefix(Hash([32]byte{}).String(), "h'") {
		t.Error("hash literal prefix")
	}
	if !strings.HasPrefix(PubKey("aa").String(), "k'") {
		t.Error("key literal prefix")
	}
}

func TestQuickIntStringRoundTrip(t *testing.T) {
	f := func(i int64, s string) bool {
		d1, err1 := Int(i).Marshal()
		d2, err2 := Str(s).Marshal()
		if err1 != nil || err2 != nil {
			return false
		}
		v1, e1 := Unmarshal(d1)
		v2, e2 := Unmarshal(d2)
		return e1 == nil && e2 == nil && v1.Int == i && v2.Str == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickTupleRoundTrip(t *testing.T) {
	f := func(name string, a int64, b string) bool {
		v := Tup(name, Int(a), Str(b), Tup("in", Int(a)))
		data, err := v.Marshal()
		if err != nil {
			return false
		}
		got, err := Unmarshal(data)
		return err == nil && v.Equal(got)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecodeGarbage(t *testing.T) {
	inputs := [][]byte{
		nil, {}, {99}, {1}, {2, 200}, {3, 1, 2}, {5, 2, 'a', 'b'},
	}
	for _, in := range inputs {
		if _, err := Unmarshal(in); err == nil {
			t.Errorf("garbage %v accepted", in)
		}
	}
	// Trailing bytes rejected.
	d, _ := Int(1).Marshal()
	if _, err := Unmarshal(append(d, 0)); err == nil {
		t.Error("trailing bytes accepted")
	}
}

func TestParseHash(t *testing.T) {
	if _, err := ParseHash("zz"); err == nil {
		t.Error("bad hex accepted")
	}
	if _, err := ParseHash("abcd"); err == nil {
		t.Error("short hash accepted")
	}
	h, err := ParseHash(strings.Repeat("ab", 32))
	if err != nil || h.Kind != KHash {
		t.Errorf("valid hash rejected: %v", err)
	}
}

// allocated is the heap bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// nested is n tuples each inside the one before, each claiming arity:
// four bytes a level, an argument for none.
func nested(n int, arity uint64) []byte {
	var b []byte
	for range n {
		b = binary.AppendUvarint(append(b, tagTuple, 0), arity)
	}
	return b
}

// TestDecodeBoundsNesting: a tuple nested past MaxDepth is refused, and
// input that claims wide tuples it does not hold allocates in
// proportion to its bytes, not to its claims.
func TestDecodeBoundsNesting(t *testing.T) {
	in := nested(1000, 1024)
	if len(in) != 4000 {
		t.Fatalf("%d bytes", len(in))
	}
	var err error
	if n := allocated(func() { _, err = Unmarshal(in) }); err == nil || n >= 1<<20 {
		t.Errorf("1000 nested tuples of arity 1024: %v, %d bytes allocated", err, n)
	}
	deep := Int(7)
	for range MaxDepth {
		deep = Tup("t", deep)
	}
	data, err := deep.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if got, err := Unmarshal(data); err != nil || !got.Equal(deep) {
		t.Errorf("nested %d deep: %v, %v", MaxDepth, got, err)
	}
	if _, err := Tup("t", deep).Marshal(); err == nil {
		t.Errorf("nested %d deep: encoded", MaxDepth+1)
	}
	if _, err := Unmarshal(append(nested(1, 1), data...)); err == nil {
		t.Errorf("nested %d deep: decoded", MaxDepth+1)
	}
}

// FuzzDecodeValue: any bytes decode or are refused without a panic, in
// allocation proportional to their length, and what decodes encodes to
// bytes that decode to the same value.
func FuzzDecodeValue(f *testing.F) {
	for _, v := range []V{Int(-3), Str("s"), PubKey("ab"), Tup("member", Str("staff"), PubKey("aa")), Tup("t", Tup("u"))} {
		b, _ := v.Marshal()
		f.Add(b)
	}
	f.Add(nested(20, 1024))
	f.Fuzz(func(t *testing.T, data []byte) {
		var v V
		var err error
		if n := allocated(func() { v, err = Unmarshal(data) }); n > 64*uint64(len(data))+64<<10 {
			t.Fatalf("%d bytes allocated decoding %d", n, len(data))
		}
		if err != nil {
			return
		}
		again, err := v.Marshal()
		if err != nil {
			t.Fatalf("decoded %v does not encode: %v", v, err)
		}
		if w, err := Unmarshal(again); err != nil || !w.Equal(v) {
			t.Fatalf("%v re-decodes as %v, %v", v, w, err)
		}
	})
}
