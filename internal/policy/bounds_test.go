package policy

import (
	"encoding/binary"
	"runtime"
	"strings"
	"testing"

	"repro/internal/policy/value"
	"repro/internal/usecases"
)

// allocated is the heap bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestUnmarshalBoundsAllocation: a drive's record that claims a million
// constants it does not hold is refused without allocating for them.
func TestUnmarshalBoundsAllocation(t *testing.T) {
	in := binary.AppendUvarint([]byte("PSC1"), 1<<20)
	if len(in) != 7 {
		t.Fatalf("%d bytes", len(in))
	}
	var err error
	if n := allocated(func() { _, err = Unmarshal(in) }); err == nil || n >= 64<<10 {
		t.Errorf("a 7-byte record claiming 2^20 constants: %v, %d bytes allocated", err, n)
	}
}

// nestedPolicy reads only under a certificate whose fact is a tuple
// pattern depth tuples deep.
func nestedPolicy(depth int) string {
	return "read :- sessionKeyIs(U) and certificateSays(k'aa', 60, " +
		strings.Repeat("'t'(", depth) + "U" + strings.Repeat(")", depth) + ")"
}

// TestTupleDepthBound: the compiler refuses a tuple pattern nested
// deeper than the decoder reads, and one as deep round-trips.
func TestTupleDepthBound(t *testing.T) {
	if _, err := CompileSource(nestedPolicy(value.MaxDepth + 1)); err == nil {
		t.Errorf("a pattern nested %d deep compiled", value.MaxDepth+1)
	}
	p := mustCompile(t, nestedPolicy(value.MaxDepth))
	data, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if p2, err := Unmarshal(data); err != nil || p2.Hash() != p.Hash() {
		t.Errorf("a pattern nested %d deep: %v", value.MaxDepth, err)
	}
}

// FuzzProgram: any bytes unmarshal or are refused without a panic, in
// allocation proportional to their length; and any that compile as
// source survive Marshal → Unmarshal and Source → CompileSource with
// their hash. Seeded with every policy the examples and use cases store.
func FuzzProgram(f *testing.F) {
	ca, owner := strings.Repeat("ab", 32), strings.Repeat("cd", 32)
	for _, src := range []string{
		usecases.ContentServer([]string{owner}, []string{owner, ca}, nil),
		usecases.TimeCapsule(ca, 1718000000, 300, owner),
		usecases.StorageLease(ca, 1718000000, 300),
		usecases.Versioned(),
		usecases.VersionedOwned(owner),
		usecases.MAL(),
		"read :- sessionKeyIs(U) and certificateSays(k'" + ca + "', 600, 'member'('staff', U))\nupdate :- sessionKeyIs(k'" + owner + "')\n",
		nestedPolicy(value.MaxDepth),
	} {
		f.Add([]byte(src))
		if p, err := CompileSource(src); err == nil {
			b, _ := p.Marshal()
			f.Add(b)
		}
	}
	f.Add(binary.AppendUvarint([]byte("PSC1"), 1<<20))
	f.Fuzz(func(t *testing.T, data []byte) {
		if n := allocated(func() { _, _ = Unmarshal(data) }); n > 256*uint64(len(data))+64<<10 {
			t.Fatalf("%d bytes allocated unmarshaling %d", n, len(data))
		}
		p, err := CompileSource(string(data))
		if err != nil {
			return
		}
		b, err := p.Marshal()
		if err != nil {
			t.Fatalf("compiled source does not marshal: %v", err)
		}
		if p2, err := Unmarshal(b); err != nil || p2.Hash() != p.Hash() {
			t.Fatalf("compiled source does not unmarshal to itself: %v", err)
		}
		src, err := p.Source()
		if err != nil {
			t.Fatalf("compiled source does not decompile: %v", err)
		}
		if p3, err := CompileSource(src); err != nil || p3.Hash() != p.Hash() {
			t.Fatalf("decompiled %q does not recompile to itself: %v", src, err)
		}
	})
}
