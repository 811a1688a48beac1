package protocol

import "sort"

// Roster is a session's customers in sorted-name order: names[i] is the i-th
// name under sort.Strings and loads[i] the Utility Agent's model of it. Every
// fleet sum walks a roster by index, which is the sorted-name order
// PredictedOveruse fixes, so state kept in arrays parallel to a roster sums to
// the same bits as the name-keyed form. A roster is built once per session;
// Slice views it without copying.
type Roster struct {
	names []string
	loads []CustomerLoad
}

// NewRoster builds the roster of a name-keyed load map.
func NewRoster(loads map[string]CustomerLoad) Roster {
	names := sortedLoadNames(loads)
	ls := make([]CustomerLoad, len(names))
	for i, n := range names {
		ls[i] = loads[n]
	}
	return Roster{names: names, loads: ls}
}

// RosterOf builds a roster from parallel slices of distinct names and their
// loads, of equal length, sorting both by name in place; the roster owns them
// from then on.
func RosterOf(names []string, loads []CustomerLoad) Roster {
	r := Roster{names: names, loads: loads}
	sort.Sort(byName(r))
	return r
}

// byName sorts a roster's parallel slices together.
type byName Roster

func (r byName) Len() int           { return len(r.names) }
func (r byName) Less(i, j int) bool { return r.names[i] < r.names[j] }
func (r byName) Swap(i, j int) {
	r.names[i], r.names[j] = r.names[j], r.names[i]
	r.loads[i], r.loads[j] = r.loads[j], r.loads[i]
}

// Len returns the number of customers.
func (r Roster) Len() int { return len(r.names) }

// Names returns the customer names, sorted. The slice is the roster's own:
// callers read it and never write it.
func (r Roster) Names() []string { return r.names }

// Load returns the model of the i-th customer.
func (r Roster) Load(i int) CustomerLoad { return r.loads[i] }

// Index returns the position of name in the roster, or -1 when it is not a
// member.
func (r Roster) Index(name string) int {
	i := sort.SearchStrings(r.names, name)
	if i < len(r.names) && r.names[i] == name {
		return i
	}
	return -1
}

// Slice returns customers [lo, hi) as a roster sharing this one's arrays,
// clipped so that appending to the view cannot write past hi.
func (r Roster) Slice(lo, hi int) Roster {
	return Roster{names: r.names[lo:hi:hi], loads: r.loads[lo:hi:hi]}
}
