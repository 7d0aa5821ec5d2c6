package kinetic

import (
	"bytes"
	"math/rand"
	"runtime"
	"sync"
)

// skipList is an ordered in-memory key-value index, the moral
// equivalent of the LevelDB memtable inside a real Kinetic drive. It
// supports point gets, versioned puts, deletes and ordered range
// scans. All methods are safe for concurrent use.
//
// The index nodes live on the Go heap and the records' bytes in the
// list's arena. No stored slice leaves this file: a reader gets copies,
// made under the read lock into a reply, so a block that a later write
// frees and reuses is never one a reply still points at.
type skipList struct {
	mu     sync.RWMutex
	head   *skipNode
	level  int
	length int
	bytes  int64 // total key+value+version bytes resident
	rnd    *rand.Rand
	arena  *arena // written under mu's write lock only
}

const skipMaxLevel = 24

// skipNode indexes one record. rec is its key, value and version back to
// back in the arena, split by klen and vlen; only this file reads them
// (the "stored-bytes" rule of internal/archtest).
type skipNode struct {
	rec        []byte
	klen, vlen uint32
	next       []*skipNode
}

func (n *skipNode) recKey() []byte { return n.rec[:n.klen] }

func (n *skipNode) recParts() (key, value, version []byte) {
	v := n.klen + n.vlen
	return n.rec[:n.klen], n.rec[n.klen:v], n.rec[v:]
}

func newSkipList() *skipList {
	s := &skipList{
		head:  &skipNode{next: make([]*skipNode, skipMaxLevel)},
		level: 1,
		// Deterministic seed: drive behaviour must not depend on
		// wall-clock entropy; the distribution is what matters.
		rnd:   rand.New(rand.NewSource(0x5eed)),
		arena: &arena{},
	}
	// A list dropped without clear gives its records back too.
	runtime.AddCleanup(s, (*arena).release, s.arena)
	return s
}

// get copies the value and stored version of key into out.
func (s *skipList) get(key []byte, out *reply) (value, version []byte, ok bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := s.find(key)
	if n == nil {
		return nil, nil, false
	}
	_, v, ver := n.recParts()
	out.reserve(len(v) + len(ver))
	return out.take(v), out.take(ver), true
}

// version copies the stored version of key into out.
func (s *skipList) version(key []byte, out *reply) ([]byte, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := s.find(key)
	if n == nil {
		return nil, false
	}
	_, _, ver := n.recParts()
	return out.take(ver), true
}

// find returns the node with exactly key, or nil. Caller holds a lock.
func (s *skipList) find(key []byte) *skipNode {
	x := s.head
	for i := s.level - 1; i >= 0; i-- {
		for x.next[i] != nil && bytes.Compare(x.next[i].recKey(), key) < 0 {
			x = x.next[i]
		}
	}
	x = x.next[0]
	if x != nil && bytes.Equal(x.recKey(), key) {
		return x
	}
	return nil
}

// put inserts or replaces key with copies of value and version. The
// replaced record's block is freed.
func (s *skipList) put(key, value, version []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()

	rec := s.arena.alloc(len(key) + len(value) + len(version))
	n := copy(rec, key)
	n += copy(rec[n:], value)
	copy(rec[n:], version)

	var update [skipMaxLevel]*skipNode
	x := s.head
	for i := s.level - 1; i >= 0; i-- {
		for x.next[i] != nil && bytes.Compare(x.next[i].recKey(), key) < 0 {
			x = x.next[i]
		}
		update[i] = x
	}
	x = x.next[0]
	if x != nil && bytes.Equal(x.recKey(), key) {
		s.bytes += int64(len(rec) - len(x.rec))
		s.arena.free(x.rec)
		x.rec, x.vlen = rec, uint32(len(value))
		return
	}

	lvl := s.randomLevel()
	if lvl > s.level {
		for i := s.level; i < lvl; i++ {
			update[i] = s.head
		}
		s.level = lvl
	}
	nd := &skipNode{rec: rec, klen: uint32(len(key)), vlen: uint32(len(value)), next: make([]*skipNode, lvl)}
	for i := 0; i < lvl; i++ {
		nd.next[i] = update[i].next[i]
		update[i].next[i] = nd
	}
	s.length++
	s.bytes += int64(len(rec))
}

// delete removes key and frees its block, reporting whether it was
// present.
func (s *skipList) delete(key []byte) bool {
	s.mu.Lock()
	defer s.mu.Unlock()

	var update [skipMaxLevel]*skipNode
	x := s.head
	for i := s.level - 1; i >= 0; i-- {
		for x.next[i] != nil && bytes.Compare(x.next[i].recKey(), key) < 0 {
			x = x.next[i]
		}
		update[i] = x
	}
	x = x.next[0]
	if x == nil || !bytes.Equal(x.recKey(), key) {
		return false
	}
	for i := 0; i < s.level; i++ {
		if update[i].next[i] != x {
			break
		}
		update[i].next[i] = x.next[i]
	}
	for s.level > 1 && s.head.next[s.level-1] == nil {
		s.level--
	}
	s.length--
	s.bytes -= int64(len(x.rec))
	s.arena.free(x.rec)
	return true
}

// scan copies into out the keys in [start, end], in order (or reverse
// order), and with withValues their values. take is shown each key's
// size, plus its value's with withValues, and says whether to copy it;
// the walk ends at the first it refuses, or after max keys (max <= 0
// means unlimited). startInclusive controls whether a node equal to
// start is included. An empty end means "to the last key" (or, in
// reverse, "from the last key down"). The keys taken are copied in one
// piece, into one buffer.
func (s *skipList) scan(start, end []byte, startInclusive, reverse, withValues bool, max int, out *reply, take func(size int) bool) (keys, values [][]byte) {
	s.mu.RLock()
	defer s.mu.RUnlock()

	taken := make([]*skipNode, 0, min(uint(max), 128)) // a listing's page
	size := 0
	visit := func(n *skipNode) bool {
		if max > 0 && len(taken) >= max {
			return false
		}
		sz := int(n.klen)
		if withValues {
			sz += int(n.vlen)
		}
		if !take(sz) {
			return false
		}
		taken = append(taken, n)
		size += sz
		return true
	}
	if reverse {
		// Reverse scans are rare (version-history listing); collect
		// the forward window then walk it backwards.
		var window []*skipNode
		s.forward(start, end, startInclusive, func(n *skipNode) bool {
			window = append(window, n)
			return true
		})
		for i := len(window) - 1; i >= 0; i-- {
			if !visit(window[i]) {
				break
			}
		}
	} else {
		s.forward(start, end, startInclusive, visit)
	}

	out.reserve(size)
	keys = make([][]byte, len(taken))
	if withValues {
		values = make([][]byte, len(taken))
	}
	for i, n := range taken {
		k, v, _ := n.recParts()
		keys[i] = out.take(k)
		if withValues {
			values[i] = out.take(v)
		}
	}
	return keys, values
}

// forward walks nodes with start <= key <= end. Caller holds a lock.
func (s *skipList) forward(start, end []byte, startInclusive bool, fn func(*skipNode) bool) {
	x := s.head
	for i := s.level - 1; i >= 0; i-- {
		for x.next[i] != nil && bytes.Compare(x.next[i].recKey(), start) < 0 {
			x = x.next[i]
		}
	}
	x = x.next[0]
	if x != nil && !startInclusive && bytes.Equal(x.recKey(), start) {
		x = x.next[0]
	}
	for x != nil {
		if len(end) > 0 && bytes.Compare(x.recKey(), end) > 0 {
			return
		}
		if !fn(x) {
			return
		}
		x = x.next[0]
	}
}

// len returns the number of resident keys.
func (s *skipList) len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.length
}

// sizeBytes returns resident key+value+version bytes.
func (s *skipList) sizeBytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.bytes
}

// mappedBytes returns the bytes the arena has mapped from the OS.
func (s *skipList) mappedBytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.arena.mapped
}

// clear drops every entry and unmaps every record (instant secure
// erase).
func (s *skipList) clear() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.head = &skipNode{next: make([]*skipNode, skipMaxLevel)}
	s.level = 1
	s.length = 0
	s.bytes = 0
	s.arena.release()
}

func (s *skipList) randomLevel() int {
	lvl := 1
	for lvl < skipMaxLevel && s.rnd.Intn(4) == 0 {
		lvl++
	}
	return lvl
}
