// Package ec implements systematic Reed-Solomon erasure coding over
// GF(2^8) for the controller's erasure-coded storage class: k data
// shards plus m parity shards, any k of which reconstruct the
// original data. The arithmetic runs on cached tables computed once at
// package init, with no field arithmetic on the hot path. On amd64 CPUs
// with AVX2, per parity shard, each 32 bytes cost two VPSHUFB lookups
// in a coefficient's split tables (its products with the 16 low and
// the 16 high nibbles) and one XOR (Plank, Greenan and Miller, "Screaming
// Fast Galois Field Arithmetic Using Intel SIMD Instructions", FAST
// 2013). Elsewhere, and for the last bytes short of 32, each eight
// bytes cost eight lookups in the 64 KB full multiplication table,
// packed into one word, and one word XOR. An identity coefficient is a
// plain XOR either way.
//
// The code is systematic: the encoding matrix is a (k+m)×k Vandermonde
// matrix normalized so its top k×k block is the identity, which keeps
// data shards stored verbatim (reads of healthy stripes never touch
// the decoder) while preserving the Vandermonde property that every
// k×k submatrix is invertible — the guarantee that any k surviving
// shards suffice.
package ec

import (
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"
)

// Errors.
var (
	ErrShort    = errors.New("ec: fewer than k shards survive; data unrecoverable")
	ErrShards   = errors.New("ec: invalid shard set")
	ErrParams   = errors.New("ec: invalid coding parameters")
	errSingular = errors.New("ec: singular submatrix") // impossible for Vandermonde; internal guard
)

// Field size and the primitive polynomial x^8+x^4+x^3+x^2+1 (0x11d),
// the conventional generator for storage RS codes.
const fieldSize = 256

var (
	gfExp [2 * fieldSize]byte // anti-log table, doubled to skip a mod
	gfLog [fieldSize]byte
	// gfMulTable caches every product: gfMulTable[a][b] = a·b in
	// GF(2^8). 64 KB once, then encode/decode inner loops are pure
	// lookups.
	gfMulTable [fieldSize][fieldSize]byte
)

func init() {
	x := byte(1)
	for i := 0; i < fieldSize-1; i++ {
		gfExp[i] = x
		gfLog[x] = byte(i)
		// multiply by the generator (2) modulo the primitive polynomial
		if x&0x80 != 0 {
			x = (x << 1) ^ 0x1d
		} else {
			x <<= 1
		}
	}
	for i := fieldSize - 1; i < len(gfExp); i++ {
		gfExp[i] = gfExp[i-(fieldSize-1)]
	}
	for a := 1; a < fieldSize; a++ {
		la := int(gfLog[a])
		for b := 1; b < fieldSize; b++ {
			gfMulTable[a][b] = gfExp[la+int(gfLog[b])]
		}
	}
	initKernel()
}

func gfMul(a, b byte) byte { return gfMulTable[a][b] }

func gfInv(a byte) byte {
	if a == 0 {
		panic("ec: inverse of zero")
	}
	return gfExp[(fieldSize-1)-int(gfLog[a])]
}

// mulSliceXor folds coef·in into out: out[i] ^= coef·in[i]. in may be
// shorter than out (the tail contributes zeros — short final chunks of
// a stripe are implicitly zero-padded). The vector kernel folds the
// whole 32-byte blocks where it runs; the word loop folds the rest.
func mulSliceXor(coef byte, in, out []byte) {
	if coef == 0 {
		return
	}
	out = out[:len(in)]
	if coef == 1 {
		subtle.XORBytes(out, out, in)
		return
	}
	n := mulSliceXorVec(coef, in, out)
	mulSliceXorWord(coef, in[n:], out[n:])
}

// mulSliceXorWord folds coef·in into out (len(out) ≥ len(in)) eight
// bytes a step: eight lookups packed into one word, one XOR into out; a
// byte loop takes only the tail.
func mulSliceXorWord(coef byte, in, out []byte) {
	mt := &gfMulTable[coef]
	for len(in) >= 8 {
		s, o := in[:8:8], out[:8:8]
		p := uint64(mt[s[0]]) | uint64(mt[s[1]])<<8 | uint64(mt[s[2]])<<16 | uint64(mt[s[3]])<<24 |
			uint64(mt[s[4]])<<32 | uint64(mt[s[5]])<<40 | uint64(mt[s[6]])<<48 | uint64(mt[s[7]])<<56
		binary.LittleEndian.PutUint64(o, binary.LittleEndian.Uint64(o)^p)
		in, out = in[8:], out[8:]
	}
	for i, v := range in {
		out[i] ^= mt[v]
	}
}

// Code is one (k, m) Reed-Solomon code: k data shards, m parity
// shards. Immutable after New; safe for concurrent use.
type Code struct {
	k, m int
	// parity is the bottom m×k block of the systematic encoding
	// matrix: parity shard j = Σ_i parity[j][i] · data shard i.
	parity [][]byte
}

// MaxShards bounds k+m: the Vandermonde construction needs distinct
// field elements per row.
const MaxShards = fieldSize - 1

// New builds the (k, m) code. k ≥ 1, m ≥ 1, k+m ≤ MaxShards.
func New(k, m int) (*Code, error) {
	if k < 1 || m < 1 || k+m > MaxShards {
		return nil, fmt.Errorf("%w: k=%d m=%d", ErrParams, k, m)
	}
	// Vandermonde rows: row i = [i^0, i^1, ... i^(k-1)] over GF(2^8).
	vm := make([][]byte, k+m)
	for i := range vm {
		vm[i] = make([]byte, k)
		e := byte(1)
		for j := 0; j < k; j++ {
			vm[i][j] = e
			e = gfMul(e, byte(i)) // row 0 degenerates to [1,0,...]: 0^0 = 1
		}
	}
	// Normalize: multiply by the inverse of the top k×k block so the
	// top becomes the identity (systematic form). Row operations
	// preserve the any-k-rows-invertible property.
	top := make([][]byte, k)
	for i := range top {
		top[i] = append([]byte(nil), vm[i][:k]...)
	}
	inv, err := invertMatrix(top)
	if err != nil {
		return nil, err // unreachable: Vandermonde top block is invertible
	}
	sys := matMul(vm, inv)
	return &Code{k: k, m: m, parity: sys[k:]}, nil
}

// DataShards returns k.
func (c *Code) DataShards() int { return c.k }

// ParityShards returns m.
func (c *Code) ParityShards() int { return c.m }

// EncodeAdd folds one data shard into the m parity accumulators:
// parity[j] ^= coef(j, dataIdx)·data. Calling it once per data shard
// (any order) with parity buffers starting zeroed is equivalent to
// Encode; data may be shorter than the parity buffers (zero-padded
// semantics), which is how the final short chunk of a stripe encodes
// without materializing its padding.
func (c *Code) EncodeAdd(parity [][]byte, dataIdx int, data []byte) {
	for j := 0; j < c.m; j++ {
		mulSliceXor(c.parity[j][dataIdx], data, parity[j])
	}
}

// Encode computes all m parity shards from the k data shards. parity
// buffers must be zeroed and at least as long as the longest data
// shard.
func (c *Code) Encode(data, parity [][]byte) error {
	if len(data) != c.k || len(parity) != c.m {
		return fmt.Errorf("%w: want %d data + %d parity shards, have %d + %d",
			ErrShards, c.k, c.m, len(data), len(parity))
	}
	for i, d := range data {
		c.EncodeAdd(parity, i, d)
	}
	return nil
}

// Reconstruct fills every nil shard in place. shards has length k+m:
// indices < k are data shards, the rest parity. All non-nil shards
// must have equal length (callers zero-pad short final chunks); at
// least k must be non-nil or ErrShort reports the stripe lost.
func (c *Code) Reconstruct(shards [][]byte) error {
	return c.reconstruct(shards, true)
}

// ReconstructData fills only the nil data shards, leaving missing
// parity nil — the read path wants the data back and has no use for
// re-derived parity.
func (c *Code) ReconstructData(shards [][]byte) error {
	return c.reconstruct(shards, false)
}

func (c *Code) reconstruct(shards [][]byte, withParity bool) error {
	if len(shards) != c.k+c.m {
		return fmt.Errorf("%w: want %d shards, have %d", ErrShards, c.k+c.m, len(shards))
	}
	present := make([]int, 0, c.k)
	shardLen := -1
	for i, s := range shards {
		if s == nil {
			continue
		}
		if shardLen < 0 {
			shardLen = len(s)
		} else if len(s) != shardLen {
			return fmt.Errorf("%w: shard %d is %d bytes, want %d", ErrShards, i, len(s), shardLen)
		}
		if len(present) < c.k {
			present = append(present, i)
		}
	}
	if len(present) < c.k {
		return fmt.Errorf("%w: %d of %d shards present, need %d", ErrShort, len(present), c.k+c.m, c.k)
	}
	anyMissingData := false
	for i := 0; i < c.k; i++ {
		if shards[i] == nil {
			anyMissingData = true
		}
	}
	if anyMissingData {
		// Solve for the data shards: the k present shards are k known
		// linear combinations of them (row = identity row for a data
		// shard, parity row for a parity shard). Invert that k×k system
		// and apply the rows of the inverse that correspond to missing
		// data shards.
		sub := make([][]byte, c.k)
		for r, idx := range present {
			if idx < c.k {
				row := make([]byte, c.k)
				row[idx] = 1
				sub[r] = row
			} else {
				sub[r] = append([]byte(nil), c.parity[idx-c.k]...)
			}
		}
		dec, err := invertMatrix(sub)
		if err != nil {
			return err
		}
		for i := 0; i < c.k; i++ {
			if shards[i] != nil {
				continue
			}
			out := make([]byte, shardLen)
			for r, idx := range present {
				mulSliceXor(dec[i][r], shards[idx], out)
			}
			shards[i] = out
		}
	}
	if !withParity {
		return nil
	}
	// Re-derive any missing parity from the (now complete) data.
	for j := 0; j < c.m; j++ {
		if shards[c.k+j] != nil {
			continue
		}
		out := make([]byte, shardLen)
		for i := 0; i < c.k; i++ {
			mulSliceXor(c.parity[j][i], shards[i], out)
		}
		shards[c.k+j] = out
	}
	return nil
}

// matMul returns a×b for dense GF(2^8) matrices.
func matMul(a, b [][]byte) [][]byte {
	rows, inner, cols := len(a), len(b), len(b[0])
	out := make([][]byte, rows)
	for i := range out {
		out[i] = make([]byte, cols)
		for j := 0; j < cols; j++ {
			var acc byte
			for t := 0; t < inner; t++ {
				acc ^= gfMul(a[i][t], b[t][j])
			}
			out[i][j] = acc
		}
	}
	return out
}

// invertMatrix returns the inverse of a square GF(2^8) matrix by
// Gauss-Jordan elimination. The input is consumed as scratch.
func invertMatrix(m [][]byte) ([][]byte, error) {
	n := len(m)
	inv := make([][]byte, n)
	for i := range inv {
		inv[i] = make([]byte, n)
		inv[i][i] = 1
	}
	for col := 0; col < n; col++ {
		pivot := -1
		for r := col; r < n; r++ {
			if m[r][col] != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			return nil, errSingular
		}
		m[col], m[pivot] = m[pivot], m[col]
		inv[col], inv[pivot] = inv[pivot], inv[col]
		if p := m[col][col]; p != 1 {
			pi := gfInv(p)
			for j := 0; j < n; j++ {
				m[col][j] = gfMul(m[col][j], pi)
				inv[col][j] = gfMul(inv[col][j], pi)
			}
		}
		for r := 0; r < n; r++ {
			if r == col || m[r][col] == 0 {
				continue
			}
			f := m[r][col]
			for j := 0; j < n; j++ {
				m[r][j] ^= gfMul(f, m[col][j])
				inv[r][j] ^= gfMul(f, inv[col][j])
			}
		}
	}
	return inv, nil
}
