// Package ring is the grid's one overwrite-oldest ring buffer: the span
// ring, the log ring, the hub's per-process rings, the collector's per-shard
// series and both tsdb tiers are each a Buffer behind their owner's mutex.
package ring

// Buffer keeps the newest Cap values pushed into it. Its only state beyond
// the slots is the count of values ever pushed: the write position, the
// length and the number overwritten all derive from that one counter, which
// is also the cursor space Since reads in. A Buffer is not safe for
// concurrent use; the owner's lock guards it.
type Buffer[T any] struct {
	buf   []T
	total uint64
}

// New returns an empty buffer of the given capacity, which must be positive.
func New[T any](capacity int) *Buffer[T] {
	if capacity < 1 {
		panic("ring: capacity must be positive")
	}
	return &Buffer[T]{buf: make([]T, capacity)}
}

// Push appends v. Once the buffer is full it overwrites the oldest value and
// returns it with wrapped set.
func (b *Buffer[T]) Push(v T) (evicted T, wrapped bool) {
	slot := &b.buf[b.total%uint64(len(b.buf))]
	if wrapped = b.total >= uint64(len(b.buf)); wrapped {
		evicted = *slot
	}
	*slot = v
	b.total++
	return evicted, wrapped
}

// Cap returns the capacity.
func (b *Buffer[T]) Cap() int { return len(b.buf) }

// Len returns the number of values held; a nil buffer (a ring its owner has
// not needed yet) holds none.
func (b *Buffer[T]) Len() int {
	if b == nil {
		return 0
	}
	return int(min(b.total, uint64(len(b.buf))))
}

// Total returns the number of values ever pushed — the cursor a reader
// hands to its next Since.
func (b *Buffer[T]) Total() uint64 { return b.total }

// Dropped returns the number of values overwritten so far, which is also
// the cursor of the oldest value still held.
func (b *Buffer[T]) Dropped() uint64 { return b.total - uint64(b.Len()) }

// At returns the i-th oldest held value, 0 ≤ i < Len.
func (b *Buffer[T]) At(i int) T {
	return b.buf[(b.Dropped()+uint64(i))%uint64(len(b.buf))]
}

// Since copies, oldest first, every value pushed after the first cursor
// ones that is still held, and counts in missed those that were overwritten
// before this read reached them. A cursor at or beyond Total reads nothing;
// the result is empty then, never nil.
func (b *Buffer[T]) Since(cursor uint64) (vals []T, missed uint64) {
	cursor = min(cursor, b.total)
	if oldest := b.Dropped(); cursor < oldest {
		missed, cursor = oldest-cursor, oldest
	}
	vals = make([]T, 0, b.total-cursor)
	for ; cursor < b.total; cursor++ {
		vals = append(vals, b.buf[cursor%uint64(len(b.buf))])
	}
	return vals, missed
}
