package kinetic

import "math/bits"

// reply holds the stored bytes one response carries. The skip list
// copies them in under its read lock, so the block they came from may be
// freed and reused once the lock is released while the copy is still on
// its way out. A pooled reply draws its buffers from replyBufs and gives
// them back in release, once the response is written; any other reply's
// buffers are the caller's to keep.
type reply struct {
	pooled bool
	bufs   [][]byte
}

// Pooled buffers come in powers of two from 4 KiB to 4 MiB, which holds
// the largest frame. Each size keeps at most 16 MiB of idle buffers (and
// at most 64), in a channel rather than a sync.Pool: a garbage
// collection would empty a sync.Pool, and a megabyte buffer made again
// costs its zeroing and a share of the next collection.
const (
	minReplyShift = 12
	replyClasses  = 11
)

var replyBufs = func() (p [replyClasses]chan []byte) {
	for c := range p {
		p[c] = make(chan []byte, min(64, (16<<20)>>(c+minReplyShift)))
	}
	return p
}()

// reserve makes room for n more bytes in the newest buffer, so that the
// next n bytes taken land in one buffer.
func (r *reply) reserve(n int) {
	k := len(r.bufs)
	if n == 0 || k > 0 && cap(r.bufs[k-1])-len(r.bufs[k-1]) >= n {
		return
	}
	r.bufs = append(r.bufs, r.newBuf(n))
}

// take returns a copy of b that the reply owns.
func (r *reply) take(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	r.reserve(len(b))
	buf := r.bufs[len(r.bufs)-1]
	off := len(buf)
	buf = append(buf, b...)
	r.bufs[len(r.bufs)-1] = buf
	return buf[off:len(buf):len(buf)]
}

func (r *reply) newBuf(n int) []byte {
	c := max(bits.Len(uint(n-1)), minReplyShift) - minReplyShift
	if !r.pooled || c >= replyClasses {
		return make([]byte, 0, n)
	}
	select {
	case b := <-replyBufs[c]:
		return b
	default:
		return make([]byte, 0, 1<<(c+minReplyShift))
	}
}

// release gives a pooled reply's buffers back; a second call does
// nothing. Nothing taken from the reply may be used after.
func (r *reply) release() {
	if !r.pooled {
		return
	}
	for _, b := range r.bufs {
		if c := bits.Len(uint(cap(b))) - 1 - minReplyShift; c >= 0 && c < replyClasses && cap(b) == 1<<(c+minReplyShift) {
			select {
			case replyBufs[c] <- b[:0]:
			default:
			}
		}
	}
	r.bufs = nil
}
