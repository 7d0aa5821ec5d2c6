package ec

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// TestRoundTrip fuzzes encode/decode identity across random (k, m,
// size): for every combination, dropping any m shards still
// reconstructs the original data exactly.
func TestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 60; trial++ {
		k := 1 + rng.Intn(8)
		m := 1 + rng.Intn(4)
		size := 1 + rng.Intn(4096)
		c, err := New(k, m)
		if err != nil {
			t.Fatalf("New(%d,%d): %v", k, m, err)
		}
		data := make([][]byte, k)
		for i := range data {
			data[i] = make([]byte, size)
			rng.Read(data[i])
		}
		parity := make([][]byte, m)
		for j := range parity {
			parity[j] = make([]byte, size)
		}
		if err := c.Encode(data, parity); err != nil {
			t.Fatalf("Encode: %v", err)
		}

		// Drop a random set of exactly m shards.
		shards := make([][]byte, k+m)
		for i := range data {
			shards[i] = append([]byte(nil), data[i]...)
		}
		for j := range parity {
			shards[k+j] = append([]byte(nil), parity[j]...)
		}
		for _, di := range rng.Perm(k + m)[:m] {
			shards[di] = nil
		}
		if err := c.Reconstruct(shards); err != nil {
			t.Fatalf("Reconstruct k=%d m=%d: %v", k, m, err)
		}
		for i := range data {
			if !bytes.Equal(shards[i], data[i]) {
				t.Fatalf("k=%d m=%d size=%d: data shard %d differs after reconstruction", k, m, size, i)
			}
		}
		for j := range parity {
			if !bytes.Equal(shards[k+j], parity[j]) {
				t.Fatalf("k=%d m=%d size=%d: parity shard %d differs after reconstruction", k, m, size, j)
			}
		}
	}
}

// TestEncodeAddIncremental checks the streaming accumulation path:
// folding shards one at a time (with a short final shard) matches
// Encode over zero-padded input.
func TestEncodeAddIncremental(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	c, err := New(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	const size = 1024
	data := make([][]byte, 4)
	for i := range data {
		data[i] = make([]byte, size)
		rng.Read(data[i])
	}
	// Shorten the last shard; zero-pad the reference copy.
	short := append([]byte(nil), data[3][:100]...)
	padded := make([]byte, size)
	copy(padded, short)
	data[3] = padded

	want := [][]byte{make([]byte, size), make([]byte, size)}
	if err := c.Encode(data, want); err != nil {
		t.Fatal(err)
	}

	got := [][]byte{make([]byte, size), make([]byte, size)}
	for i := 0; i < 3; i++ {
		c.EncodeAdd(got, i, data[i])
	}
	c.EncodeAdd(got, 3, short) // unpadded: EncodeAdd's implicit zero-fill
	for j := range want {
		if !bytes.Equal(got[j], want[j]) {
			t.Fatalf("incremental parity %d differs from batch encode", j)
		}
	}
}

// TestTooManyLost verifies the decoder fails loudly — ErrShort, not
// silently wrong bytes — once m+1 shards are gone.
func TestTooManyLost(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, km := range [][2]int{{4, 2}, {2, 1}, {6, 3}} {
		k, m := km[0], km[1]
		c, err := New(k, m)
		if err != nil {
			t.Fatal(err)
		}
		shards := make([][]byte, k+m)
		for i := range shards {
			shards[i] = make([]byte, 64)
			rng.Read(shards[i])
		}
		for _, di := range rng.Perm(k + m)[:m+1] {
			shards[di] = nil
		}
		if err := c.Reconstruct(shards); !errors.Is(err, ErrShort) {
			t.Fatalf("k=%d m=%d with %d lost: got %v, want ErrShort", k, m, m+1, err)
		}
	}
}

// TestParams rejects degenerate codes.
func TestParams(t *testing.T) {
	for _, bad := range [][2]int{{0, 1}, {1, 0}, {-1, 2}, {200, 100}} {
		if _, err := New(bad[0], bad[1]); !errors.Is(err, ErrParams) {
			t.Fatalf("New(%d,%d): got %v, want ErrParams", bad[0], bad[1], err)
		}
	}
	if _, err := New(4, 2); err != nil {
		t.Fatalf("New(4,2): %v", err)
	}
}

// TestMismatchedShardLengths rejects ragged shard sets instead of
// reading out of bounds.
func TestMismatchedShardLengths(t *testing.T) {
	c, err := New(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	shards := [][]byte{make([]byte, 8), make([]byte, 9), nil}
	if err := c.Reconstruct(shards); !errors.Is(err, ErrShards) {
		t.Fatalf("got %v, want ErrShards", err)
	}
}

func BenchmarkEncode4x2(b *testing.B) {
	c, _ := New(4, 2)
	const size = 1 << 20
	data := make([][]byte, 4)
	for i := range data {
		data[i] = make([]byte, size)
		rand.New(rand.NewSource(int64(i))).Read(data[i])
	}
	parity := [][]byte{make([]byte, size), make([]byte, size)}
	b.SetBytes(4 * size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range parity {
			for x := range parity[j] {
				parity[j][x] = 0
			}
		}
		c.Encode(data, parity)
	}
}

// FuzzReconstruct feeds the decoder the shard shapes its callers derive
// from drive replies: any (k, m), any set of surviving shards, any
// lengths. It must never panic; ragged survivors are ErrShards, fewer
// than k survivors ErrShort, and k or more equal-length survivors give
// back exactly what was encoded — all data from both entry points, the
// parity too from Reconstruct.
func FuzzReconstruct(f *testing.F) {
	f.Add(uint8(3), uint8(1), uint32(0b101111), uint16(64), []byte{}, int64(1))      // 4+2, two lost
	f.Add(uint8(3), uint8(1), uint32(0b000111), uint16(64), []byte{}, int64(2))      // 4+2, three lost
	f.Add(uint8(1), uint8(0), uint32(0b111), uint16(9), []byte{0, 1}, int64(3))      // 2+1, ragged
	f.Add(uint8(0), uint8(0), uint32(0b10), uint16(0), []byte{}, int64(4))           // 1+1, parity only, empty shards
	f.Add(uint8(11), uint8(5), uint32(0xffff0f0f), uint16(2047), []byte{}, int64(5)) // 12+6
	f.Fuzz(func(t *testing.T, kb, mb uint8, present uint32, size uint16, stretch []byte, seed int64) {
		k, m := 1+int(kb%12), 1+int(mb%6)
		c, err := New(k, m)
		if err != nil {
			t.Fatalf("New(%d,%d): %v", k, m, err)
		}
		rng := rand.New(rand.NewSource(seed))
		full := make([][]byte, k+m)
		for i := range full {
			full[i] = make([]byte, size%2048)
			if i < k {
				rng.Read(full[i])
			}
		}
		if err := c.Encode(full[:k], full[k:]); err != nil {
			t.Fatal(err)
		}
		// Survivors: the shards whose bit is set, shard i stretched by
		// stretch[i] bytes.
		survivors := func() (shards [][]byte, n int, ragged bool) {
			shards = make([][]byte, k+m)
			length := -1
			for i := range shards {
				if present&(1<<uint(i)) == 0 {
					continue
				}
				shards[i] = append([]byte{}, full[i]...)
				if i < len(stretch) {
					shards[i] = append(shards[i], make([]byte, stretch[i])...)
				}
				if n++; length < 0 {
					length = len(shards[i])
				}
				ragged = ragged || len(shards[i]) != length
			}
			return shards, n, ragged
		}
		for _, withParity := range []bool{true, false} {
			shards, n, ragged := survivors()
			if withParity {
				err = c.Reconstruct(shards)
			} else {
				err = c.ReconstructData(shards)
			}
			switch {
			case ragged:
				if !errors.Is(err, ErrShards) {
					t.Fatalf("k=%d m=%d ragged survivors: %v, want ErrShards", k, m, err)
				}
				continue
			case n < k:
				if !errors.Is(err, ErrShort) {
					t.Fatalf("k=%d m=%d with %d survivors: %v, want ErrShort", k, m, n, err)
				}
				continue
			case err != nil:
				t.Fatalf("k=%d m=%d with %d survivors: %v", k, m, n, err)
			}
			// Equal-length survivors all carry the same stretch, which
			// the decoder treats as data: compare the encoded prefix.
			for i := range shards {
				lostParity := i >= k && present&(1<<uint(i)) == 0
				if wantNil := lostParity && !withParity; (shards[i] == nil) != wantNil {
					t.Fatalf("k=%d m=%d parity=%v: shard %d nil=%v", k, m, withParity, i, shards[i] == nil)
				}
				if shards[i] != nil && !bytes.HasPrefix(shards[i], full[i]) {
					t.Fatalf("k=%d m=%d size=%d parity=%v: shard %d differs after reconstruction", k, m, len(full[i]), withParity, i)
				}
			}
		}
	})
}

// refMul multiplies in GF(2^8) bit by bit (shift and add, reducing by
// the primitive polynomial): a reference that shares no table with the
// code under test.
func refMul(a, b byte) byte {
	var p byte
	for ; b != 0; b >>= 1 {
		if b&1 != 0 {
			p ^= a
		}
		if a&0x80 != 0 {
			a = a<<1 ^ 0x1d
		} else {
			a <<= 1
		}
	}
	return p
}

// refMulSliceXor is mulSliceXor one byte at a time.
func refMulSliceXor(coef byte, in, out []byte) {
	var row [fieldSize]byte
	for v := range row {
		row[v] = refMul(coef, byte(v))
	}
	for i, v := range in {
		out[i] ^= row[v]
	}
}

// TestMulSliceXorMatchesTable holds the kernel to the byte-at-a-time
// product for every coefficient, through the dispatcher (the vector
// kernel where the CPU has one) and through the word loop called
// directly, so that both stay covered on every machine. The lengths
// exercise an empty input, a tail alone, whole words plus every tail,
// one 32-byte block either side and large buffers; in and out both
// start off word alignment, out runs past in, and no byte past len(in)
// may change.
func TestMulSliceXorMatchesTable(t *testing.T) {
	lengths := []int{31, 32, 33, 63, 64, 65, 4095, 1<<20 + 3}
	for n := 0; n <= 17; n++ {
		lengths = append(lengths, n)
	}
	kernels := []struct {
		name string
		fold func(coef byte, in, out []byte)
	}{{"dispatch", mulSliceXor}, {"word", mulSliceXorWord}}
	rng := rand.New(rand.NewSource(7))
	for _, n := range lengths {
		src := make([]byte, n+1)
		rng.Read(src)
		in := src[1:] // off word alignment
		base := make([]byte, n+5)
		rng.Read(base)
		got := make([]byte, len(base)+3)[3:] // off word alignment
		want := make([]byte, len(base))
		for coef := 0; coef < fieldSize; coef++ {
			copy(want, base)
			refMulSliceXor(byte(coef), in, want)
			for _, k := range kernels {
				copy(got, base)
				k.fold(byte(coef), in, got)
				if !bytes.Equal(got, want) {
					i := 0
					for got[i] == want[i] {
						i++
					}
					t.Fatalf("%s: coef %d, length %d: byte %d is %#02x, want %#02x", k.name, coef, n, i, got[i], want[i])
				}
			}
		}
	}
}

// TestParityGolden pins the parity of one fixed 4+2 stripe whose final
// data chunk is short, folded in chunk by chunk as the stream path
// does: every stripe already stored must keep decoding after a change
// to the kernel.
func TestParityGolden(t *testing.T) {
	c, err := New(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	const chunk = 4099
	parity := [][]byte{make([]byte, chunk), make([]byte, chunk)}
	for i, n := range []int{chunk, chunk, chunk, 1237} {
		data := make([]byte, n)
		for x := range data {
			data[x] = byte(x*31 + i*101 + x>>8)
		}
		c.EncodeAdd(parity, i, data)
	}
	h := sha256.New()
	h.Write(parity[0])
	h.Write(parity[1])
	const golden = "4d876676f825c969d0aa0cd61fe4a17db5f17da1fb4371d11f885989b5449efe" // recorded with the byte-at-a-time kernel
	if got := hex.EncodeToString(h.Sum(nil)); got != golden {
		t.Fatalf("parity digest %s, golden %s", got, golden)
	}
}

// BenchmarkMulSliceXor measures the kernel on one 1 MiB chunk for a
// general coefficient and for coefficient 1, the identity rows.
func BenchmarkMulSliceXor(b *testing.B) {
	in := make([]byte, 1<<20)
	rand.New(rand.NewSource(1)).Read(in)
	out := make([]byte, len(in))
	for _, coef := range []byte{0x8e, 1} {
		b.Run(fmt.Sprintf("coef=%#02x", coef), func(b *testing.B) {
			b.SetBytes(int64(len(in)))
			for i := 0; i < b.N; i++ {
				mulSliceXor(coef, in, out)
			}
		})
	}
}
