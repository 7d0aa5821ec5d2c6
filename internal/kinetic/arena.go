package kinetic

import (
	"fmt"
	"math/bits"
	"os"
	"slices"
	"syscall"
)

// arena keeps a drive's record bytes outside the Go heap, in memory
// mapped from the OS. The garbage collector neither scans them nor lets
// the heap grow to twice their size, so a stored byte costs about one
// resident byte, and a drive's records cost the heap only their index
// nodes.
//
// Blocks come from size-classed slabs. A record larger than the largest
// class gets a mapping of its own. A freed block goes on its class's
// free list and is handed to the next record of that class. A freed own
// mapping is kept for the next record it fits, up to maxSpares of them
// — a chunk overwritten in place then costs no fresh pages — and
// unmapped beyond that. release unmaps everything.
//
// An arena is not safe for concurrent use: the skip list touches it
// under its write lock only, which every drive mutation takes inside
// storeMu.
type arena struct {
	classes [numClasses]slabClass
	huge    map[*byte][]byte // own mappings in use, by first byte
	spares  [][]byte         // own mappings freed, kept for reuse
	mapped  int64            // bytes mapped from the OS
}

// maxSpares bounds the freed own mappings an arena keeps.
const maxSpares = 4

// slabClass is the blocks of one size.
type slabClass struct {
	free  [][]byte // freed blocks, reused last in first out
	fresh []byte   // the newest slab's blocks not yet handed out
	slabs [][]byte // every slab of the class, for release
}

// Size classes: 16, 32, 48 and 64 bytes, then eight steps per doubling
// up to maxClass, so a record wastes less than an eighth of its size. A
// block's capacity is its class size, which is how free finds the class
// again.
const (
	maxClass   = 1 << 20
	numClasses = 4 + 8*(20-6) // 16..64, then 72..1 MiB
	minSlab    = 256 << 10
)

var pageSize = os.Getpagesize()

// classOf returns the index of the smallest class that holds n > 0 bytes.
func classOf(n int) int {
	if n <= 64 {
		return (n+15)/16 - 1
	}
	e := bits.Len(uint(n-1)) - 1 // 1<<e < n <= 2<<e
	step := 1 << (e - 3)
	k := (n - 1<<e + step - 1) / step // 1..8
	return 4 + 8*(e-6) + k - 1
}

// classSize is the block size of class c.
func classSize(c int) int {
	if c < 4 {
		return 16 * (c + 1)
	}
	e, k := 6+(c-4)/8, (c-4)%8+1
	return 1<<e + k<<(e-3)
}

// slabSize is the mapping one slab of class c takes: at least four
// blocks, in whole pages.
func slabSize(c int) int {
	return roundPage(max(minSlab, 4*classSize(c)))
}

func roundPage(n int) int { return (n + pageSize - 1) / pageSize * pageSize }

// alloc returns a block for n bytes, with length n.
func (a *arena) alloc(n int) []byte {
	if n == 0 {
		return nil
	}
	if n > maxClass {
		need := roundPage(n)
		var b []byte
		if i := slices.IndexFunc(a.spares, func(s []byte) bool { return len(s) >= need && len(s)-need <= need/8 }); i >= 0 {
			b = a.spares[i]
			a.spares = slices.Delete(a.spares, i, i+1)
		} else {
			b = a.mmap(need)
		}
		if a.huge == nil {
			a.huge = map[*byte][]byte{}
		}
		a.huge[&b[0]] = b
		return b[:n]
	}
	ci := classOf(n)
	c := &a.classes[ci]
	if k := len(c.free); k > 0 {
		b := c.free[k-1]
		c.free = c.free[:k-1]
		return b[:n]
	}
	size := classSize(ci)
	if len(c.fresh) < size {
		slab := a.mmap(slabSize(ci))
		c.slabs = append(c.slabs, slab)
		c.fresh = slab
	}
	b := c.fresh[:size:size]
	c.fresh = c.fresh[size:]
	return b[:n]
}

// free takes back a block alloc returned. Nothing may read it after.
func (a *arena) free(b []byte) {
	if cap(b) == 0 {
		return
	}
	b = b[:cap(b)]
	if len(b) > maxClass {
		delete(a.huge, &b[0])
		if len(a.spares) < maxSpares {
			a.spares = append(a.spares, b)
		} else {
			a.munmap(b)
		}
		return
	}
	c := &a.classes[classOf(len(b))]
	c.free = append(c.free, b)
}

// release unmaps every block, freed or not.
func (a *arena) release() {
	for i := range a.classes {
		for _, s := range a.classes[i].slabs {
			a.munmap(s)
		}
		a.classes[i] = slabClass{}
	}
	for _, b := range a.huge {
		a.munmap(b)
	}
	for _, b := range a.spares {
		a.munmap(b)
	}
	a.huge, a.spares = nil, nil
}

func (a *arena) mmap(n int) []byte {
	b, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		// Out of memory for records is as fatal as the heap running out.
		panic(fmt.Sprintf("kinetic: map %d bytes for records: %v", n, err))
	}
	a.mapped += int64(n)
	return b
}

func (a *arena) munmap(b []byte) {
	if err := syscall.Munmap(b); err != nil {
		panic(fmt.Sprintf("kinetic: unmap %d record bytes: %v", len(b), err))
	}
	a.mapped -= int64(len(b))
}
