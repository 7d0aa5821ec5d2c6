package kinetic

import (
	"bytes"
	"math/rand"
	"sync"
)

// skipList is an ordered in-memory key-value index, the moral
// equivalent of the LevelDB memtable inside a real Kinetic drive. It
// supports point gets, versioned puts, deletes and ordered range
// scans. All methods are safe for concurrent use.
type skipList struct {
	mu     sync.RWMutex
	head   *skipNode
	level  int
	length int
	bytes  int64 // total key+value bytes resident
	rnd    *rand.Rand
}

const skipMaxLevel = 24

type skipNode struct {
	key     []byte
	value   []byte
	version []byte
	next    []*skipNode
}

func newSkipList() *skipList {
	return &skipList{
		head:  &skipNode{next: make([]*skipNode, skipMaxLevel)},
		level: 1,
		// Deterministic seed: drive behaviour must not depend on
		// wall-clock entropy; the distribution is what matters.
		rnd: rand.New(rand.NewSource(0x5eed)),
	}
}

// get returns the value and stored version for key.
func (s *skipList) get(key []byte) (value, version []byte, ok bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := s.find(key)
	if n == nil {
		return nil, nil, false
	}
	return n.value, n.version, true
}

// find returns the node with exactly key, or nil. Caller holds a lock.
func (s *skipList) find(key []byte) *skipNode {
	x := s.head
	for i := s.level - 1; i >= 0; i-- {
		for x.next[i] != nil && bytes.Compare(x.next[i].key, key) < 0 {
			x = x.next[i]
		}
	}
	x = x.next[0]
	if x != nil && bytes.Equal(x.key, key) {
		return x
	}
	return nil
}

// put inserts or replaces key with value and version.
func (s *skipList) put(key, value, version []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()

	update := make([]*skipNode, skipMaxLevel)
	x := s.head
	for i := s.level - 1; i >= 0; i-- {
		for x.next[i] != nil && bytes.Compare(x.next[i].key, key) < 0 {
			x = x.next[i]
		}
		update[i] = x
	}
	x = x.next[0]
	if x != nil && bytes.Equal(x.key, key) {
		s.bytes += int64(len(value)) - int64(len(x.value))
		s.bytes += int64(len(version)) - int64(len(x.version))
		// The key too: the caller's three slices may share one
		// allocation, and the old key must not pin the old record.
		x.key, x.value, x.version = key, value, version
		return
	}

	lvl := s.randomLevel()
	if lvl > s.level {
		for i := s.level; i < lvl; i++ {
			update[i] = s.head
		}
		s.level = lvl
	}
	n := &skipNode{key: key, value: value, version: version, next: make([]*skipNode, lvl)}
	for i := 0; i < lvl; i++ {
		n.next[i] = update[i].next[i]
		update[i].next[i] = n
	}
	s.length++
	s.bytes += int64(len(key) + len(value) + len(version))
}

// delete removes key, reporting whether it was present.
func (s *skipList) delete(key []byte) bool {
	s.mu.Lock()
	defer s.mu.Unlock()

	update := make([]*skipNode, skipMaxLevel)
	x := s.head
	for i := s.level - 1; i >= 0; i-- {
		for x.next[i] != nil && bytes.Compare(x.next[i].key, key) < 0 {
			x = x.next[i]
		}
		update[i] = x
	}
	x = x.next[0]
	if x == nil || !bytes.Equal(x.key, key) {
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
	s.bytes -= int64(len(x.key) + len(x.value) + len(x.version))
	return true
}

// scan visits keys in [start, end] in order (or reverse order),
// calling fn for each until fn returns false or max entries have been
// visited (max <= 0 means unlimited). startInclusive controls whether
// a node equal to start is included. An empty end means "to the last
// key" (or, in reverse, "from the last key down").
func (s *skipList) scan(start, end []byte, startInclusive, reverse bool, max int, fn func(key, value, version []byte) bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()

	if reverse {
		// Reverse scans are rare (version-history listing); collect
		// the forward window then walk it backwards.
		var window []*skipNode
		s.forward(start, end, startInclusive, 0, func(n *skipNode) bool {
			window = append(window, n)
			return true
		})
		count := 0
		for i := len(window) - 1; i >= 0; i-- {
			if max > 0 && count >= max {
				return
			}
			count++
			if !fn(window[i].key, window[i].value, window[i].version) {
				return
			}
		}
		return
	}
	count := 0
	s.forward(start, end, startInclusive, 0, func(n *skipNode) bool {
		if max > 0 && count >= max {
			return false
		}
		count++
		return fn(n.key, n.value, n.version)
	})
}

// forward walks nodes with start <= key <= end. Caller holds a lock.
func (s *skipList) forward(start, end []byte, startInclusive bool, _ int, fn func(*skipNode) bool) {
	x := s.head
	for i := s.level - 1; i >= 0; i-- {
		for x.next[i] != nil && bytes.Compare(x.next[i].key, start) < 0 {
			x = x.next[i]
		}
	}
	x = x.next[0]
	if x != nil && !startInclusive && bytes.Equal(x.key, start) {
		x = x.next[0]
	}
	for x != nil {
		if len(end) > 0 && bytes.Compare(x.key, end) > 0 {
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

// sizeBytes returns resident key+value bytes.
func (s *skipList) sizeBytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.bytes
}

// clear drops every entry (instant secure erase).
func (s *skipList) clear() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.head = &skipNode{next: make([]*skipNode, skipMaxLevel)}
	s.level = 1
	s.length = 0
	s.bytes = 0
}

func (s *skipList) randomLevel() int {
	lvl := 1
	for lvl < skipMaxLevel && s.rnd.Intn(4) == 0 {
		lvl++
	}
	return lvl
}
