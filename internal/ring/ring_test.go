package ring

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// model holds a Buffer to the plainest possible specification: all is every
// value ever pushed, in order, and the ring must read as its last Cap ones.
type model struct {
	t   *testing.T
	b   *Buffer[int]
	all []int
}

// held is the tail of the model the ring still holds.
func (m *model) held() []int { return m.all[max(0, len(m.all)-m.b.Cap()):] }

func (m *model) push(v int) {
	m.t.Helper()
	evicted, wrapped := m.b.Push(v)
	back := len(m.all) - m.b.Cap() // index of the value this push overwrites
	if wrapped != (back >= 0) || wrapped && evicted != m.all[back] {
		m.t.Fatalf("push %d of cap %d: evicted %d, %v; model has %d pushed", len(m.all)+1, m.b.Cap(), evicted, wrapped, len(m.all))
	}
	m.all = append(m.all, v)
	held := m.held()
	if m.b.Len() != len(held) || m.b.Total() != uint64(len(m.all)) || m.b.Dropped() != m.b.Total()-uint64(m.b.Len()) {
		m.t.Fatalf("after %d pushes into cap %d: Len %d Total %d Dropped %d", len(m.all), m.b.Cap(), m.b.Len(), m.b.Total(), m.b.Dropped())
	}
}

func (m *model) since(cursor uint64) {
	m.t.Helper()
	held := m.held()
	oldest := uint64(len(m.all) - len(held)) // cursor of held[0]
	want, wantMissed := held, uint64(0)
	switch {
	case cursor >= uint64(len(m.all)):
		want = nil
	case cursor >= oldest:
		want = held[cursor-oldest:]
	default:
		wantMissed = oldest - cursor
	}
	got, missed := m.b.Since(cursor)
	if got == nil || !slices.Equal(got, want) || missed != wantMissed {
		m.t.Fatalf("Since(%d) after %d pushes into cap %d = %v, missed %d; want %v, missed %d",
			cursor, len(m.all), m.b.Cap(), got, missed, want, wantMissed)
	}
}

func (m *model) at(i int) {
	m.t.Helper()
	if got, want := m.b.At(i), m.held()[i]; got != want {
		m.t.Fatalf("At(%d) after %d pushes into cap %d = %d, want %d", i, len(m.all), m.b.Cap(), got, want)
	}
}

// TestBufferAgainstSliceModel drives seeded sequences of Push, Since and At
// over small capacities, wrap boundaries included. A failure names the seed.
func TestBufferAgainstSliceModel(t *testing.T) {
	// The collector's case in literals: five samples through three slots.
	t.Run("cap=3/literal", func(t *testing.T) {
		m := &model{t: t, b: New[int](3)}
		if m.b.Len() != 0 || m.b.Cap() != 3 {
			t.Fatalf("empty ring: Len %d Cap %d", m.b.Len(), m.b.Cap())
		}
		for v := 1; v <= 5; v++ {
			m.push(v)
		}
		if got, _ := m.b.Since(0); !slices.Equal(got, []int{3, 4, 5}) || m.b.At(m.b.Len()-1) != 5 {
			t.Fatalf("series %v, newest %d; want [3 4 5], 5", got, m.b.At(m.b.Len()-1))
		}
	})
	for _, capacity := range []int{1, 2, 3, 16} {
		for seed := int64(1); seed <= 8; seed++ {
			t.Run(fmt.Sprintf("cap=%d/seed=%d", capacity, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				m := &model{t: t, b: New[int](capacity)}
				for op := 0; op < 400; op++ {
					switch r := rng.Intn(10); {
					case r < 5:
						m.push(rng.Int())
					case r < 8 || m.b.Len() == 0:
						// Up to two past Total: a cursor from the future reads nothing.
						m.since(uint64(rng.Intn(len(m.all) + 3)))
					default:
						m.at(rng.Intn(m.b.Len()))
					}
				}
			})
		}
	}
}

func TestNewRejectsEmptyCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) returned; a ring of no slots cannot hold a value")
		}
	}()
	New[int](0)
}

func TestNilBufferHoldsNothing(t *testing.T) {
	if n := (*Buffer[int])(nil).Len(); n != 0 {
		t.Fatalf("nil buffer Len = %d", n)
	}
}

// TestAllocs pins what the owners' zero-allocation tests rest on: a push
// allocates nothing, a read allocates the one slice it returns.
func TestAllocs(t *testing.T) {
	b := New[int](16)
	if n := testing.AllocsPerRun(1000, func() { b.Push(1) }); n != 0 {
		t.Errorf("Push allocates %v times, want 0", n)
	}
	var got []int
	if n := testing.AllocsPerRun(1000, func() { got, _ = b.Since(b.Total() - 4) }); n != 1 || len(got) != 4 {
		t.Errorf("Since allocates %v times for %d values, want 1 for 4", n, len(got))
	}
}

// FuzzRing decodes a capacity and an operation sequence from the input and
// holds the ring to the same slice model.
func FuzzRing(f *testing.F) {
	f.Add([]byte{0, 0, 0, 2, 3})
	f.Add([]byte{2, 0, 0, 0, 0, 0, 6, 10, 3, 7})
	f.Add([]byte{15, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 42, 255})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		m := &model{t: t, b: New[int](1 + int(in[0])%16)}
		for i, op := range in[1:] {
			arg := int(op >> 2)
			switch {
			case op&3 < 2:
				m.push(i)
			case op&3 == 2 || m.b.Len() == 0:
				// arg counts back from two past Total.
				m.since(uint64(max(0, len(m.all)+2-arg)))
			default:
				m.at(arg % m.b.Len())
			}
		}
	})
}
