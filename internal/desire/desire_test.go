package desire

import (
	"errors"
	"testing"

	"loadbalance/internal/kb"
)

// testOntology declares the predicates used across the component tests.
func testOntology(t *testing.T) *kb.Ontology {
	t.Helper()
	o := kb.NewOntology()
	steps := []error{
		o.DeclareSort("customer", kb.SortAny),
		o.DeclareConst("c1", "customer"),
		o.DeclareConst("c2", "customer"),
		o.DeclarePred("offered", kb.SortNumber, kb.SortNumber),
		o.DeclarePred("required", "customer", kb.SortNumber, kb.SortNumber),
		o.DeclarePred("acceptable", "customer", kb.SortNumber),
		o.DeclarePred("best_cutdown", "customer", kb.SortNumber),
		o.DeclarePred("announced", kb.SortNumber, kb.SortNumber),
		o.DeclarePred("chosen", "customer", kb.SortNumber),
	}
	for _, err := range steps {
		if err != nil {
			t.Fatalf("ontology: %v", err)
		}
	}
	return o
}

// acceptabilityBase is the CA acceptability knowledge used in several tests.
func acceptabilityBase(t *testing.T) *kb.Base {
	t.Helper()
	base, err := kb.NewBase("acceptability", kb.Rule{
		Name: "acceptable_if_reward_clears",
		If: []kb.Literal{
			kb.Pos(kb.A("required", kb.V("C"), kb.V("Cut"), kb.V("Req"))),
			kb.Pos(kb.A("offered", kb.V("Cut"), kb.V("Off"))),
		},
		Guards: []kb.Guard{{Op: kb.OpGeq, Left: kb.V("Off"), Right: kb.V("Req")}},
		Then:   []kb.Atom{kb.A("acceptable", kb.V("C"), kb.V("Cut"))},
	})
	if err != nil {
		t.Fatalf("base: %v", err)
	}
	return base
}

func TestReasoningActivatePublishesOnlyOutputPreds(t *testing.T) {
	o := testOntology(t)
	comp := NewReasoning("determine_acceptability", o, acceptabilityBase(t), "acceptable")
	seed := []kb.Fact{
		{Atom: kb.A("required", kb.C("c1"), kb.N(0.3), kb.N(10)), Truth: kb.True},
		{Atom: kb.A("required", kb.C("c1"), kb.N(0.4), kb.N(21)), Truth: kb.True},
		{Atom: kb.A("offered", kb.N(0.3), kb.N(12)), Truth: kb.True},
		{Atom: kb.A("offered", kb.N(0.4), kb.N(17)), Truth: kb.True},
	}
	out, err := Run(comp, seed)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(out) != 1 {
		t.Fatalf("output facts = %v, want exactly one", out)
	}
	want := kb.A("acceptable", kb.C("c1"), kb.N(0.3))
	if !out[0].Atom.Equal(want) {
		t.Fatalf("output = %s, want %s", out[0].Atom, want)
	}
}

func TestReasoningActivateIsIdempotent(t *testing.T) {
	o := testOntology(t)
	comp := NewReasoning("determine_acceptability", o, acceptabilityBase(t), "acceptable")
	if _, err := Run(comp, []kb.Fact{
		{Atom: kb.A("required", kb.C("c1"), kb.N(0.3), kb.N(10)), Truth: kb.True},
		{Atom: kb.A("offered", kb.N(0.3), kb.N(12)), Truth: kb.True},
	}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	changed, err := comp.Activate()
	if err != nil {
		t.Fatalf("second Activate: %v", err)
	}
	if changed {
		t.Fatal("second activation with unchanged input must not change output")
	}
}

func TestTaskComponent(t *testing.T) {
	o := testOntology(t)
	// A calculation component: pick the highest acceptable cut-down
	// (the Customer Agent's "choose appropriate bid" task).
	pick := NewTask("select_bid", o, func(in, out *kb.Store) (bool, error) {
		best := make(map[string]float64)
		for _, a := range in.Query(kb.A("acceptable", kb.V("C"), kb.V("Cut"))) {
			c, cut := a.Args[0].Name, a.Args[1].Num
			if cut >= best[c] {
				best[c] = cut
			}
		}
		changed := false
		for c, cut := range best {
			atom := kb.A("best_cutdown", kb.C(c), kb.N(cut))
			if out.Holds(atom) {
				continue
			}
			if err := out.Assert(atom, kb.True); err != nil {
				return changed, err
			}
			changed = true
		}
		return changed, nil
	})
	out, err := Run(pick, []kb.Fact{
		{Atom: kb.A("acceptable", kb.C("c1"), kb.N(0.1)), Truth: kb.True},
		{Atom: kb.A("acceptable", kb.C("c1"), kb.N(0.4)), Truth: kb.True},
		{Atom: kb.A("acceptable", kb.C("c1"), kb.N(0.2)), Truth: kb.True},
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(out) != 1 || !out[0].Atom.Equal(kb.A("best_cutdown", kb.C("c1"), kb.N(0.4))) {
		t.Fatalf("output = %v, want best_cutdown(c1, 0.4)", out)
	}
}

// TestComposedPipeline wires the acceptability reasoner and the bid selector
// into a composed component mirroring the CA's "determine bid" composition
// (Figure 5 of the paper): announce flows in, a chosen cut-down flows out.
func TestComposedPipeline(t *testing.T) {
	o := testOntology(t)
	comp := NewComposed("determine_bid", o, 0)

	accept := NewReasoning("determine_acceptability", o, acceptabilityBase(t), "acceptable")
	pick := NewTask("select_bid", o, func(in, out *kb.Store) (bool, error) {
		best := make(map[string]float64)
		for _, a := range in.Query(kb.A("acceptable", kb.V("C"), kb.V("Cut"))) {
			c, cut := a.Args[0].Name, a.Args[1].Num
			if cut >= best[c] {
				best[c] = cut
			}
		}
		changed := false
		for c, cut := range best {
			atom := kb.A("best_cutdown", kb.C(c), kb.N(cut))
			if out.Holds(atom) {
				continue
			}
			if err := out.Assert(atom, kb.True); err != nil {
				return changed, err
			}
			changed = true
		}
		return changed, nil
	})
	if err := comp.AddChild(accept); err != nil {
		t.Fatal(err)
	}
	if err := comp.AddChild(pick); err != nil {
		t.Fatal(err)
	}
	links := []Link{
		{
			Name: "announcement_in",
			From: Endpoint{Component: "", Port: In},
			To:   Endpoint{Component: "determine_acceptability", Port: In},
			Map:  []PredMap{{From: "announced", To: "offered"}, {From: "required", To: "required"}},
		},
		{
			Name: "acceptability_to_selection",
			From: Endpoint{Component: "determine_acceptability", Port: Out},
			To:   Endpoint{Component: "select_bid", Port: In},
		},
		{
			Name: "bid_out",
			From: Endpoint{Component: "select_bid", Port: Out},
			To:   Endpoint{Component: "", Port: Out},
			Map:  []PredMap{{From: "best_cutdown", To: "chosen"}},
		},
	}
	for _, l := range links {
		if err := comp.AddLink(l); err != nil {
			t.Fatalf("AddLink(%s): %v", l.Name, err)
		}
	}
	err := comp.SetControl([]Step{
		{Transfer: "announcement_in"},
		{Activate: "determine_acceptability"},
		{Transfer: "acceptability_to_selection"},
		{Activate: "select_bid"},
		{Transfer: "bid_out"},
	})
	if err != nil {
		t.Fatalf("SetControl: %v", err)
	}

	out, err := Run(comp, []kb.Fact{
		{Atom: kb.A("required", kb.C("c1"), kb.N(0.2), kb.N(5)), Truth: kb.True},
		{Atom: kb.A("required", kb.C("c1"), kb.N(0.3), kb.N(10)), Truth: kb.True},
		{Atom: kb.A("required", kb.C("c1"), kb.N(0.4), kb.N(21)), Truth: kb.True},
		{Atom: kb.A("announced", kb.N(0.2), kb.N(8.5)), Truth: kb.True},
		{Atom: kb.A("announced", kb.N(0.3), kb.N(12.75)), Truth: kb.True},
		{Atom: kb.A("announced", kb.N(0.4), kb.N(17)), Truth: kb.True},
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(out) != 1 || !out[0].Atom.Equal(kb.A("chosen", kb.C("c1"), kb.N(0.3))) {
		t.Fatalf("output = %v, want chosen(c1, 0.3)", out)
	}
}

// TestComposedSecondRound feeds a better announcement into an already-run
// composition: the output must move to the now-acceptable higher cut-down,
// exactly as the paper's CA does between rounds (Figures 8-9).
func TestComposedSecondRound(t *testing.T) {
	o := testOntology(t)
	comp := buildBidComposition(t, o)
	if _, err := Run(comp, []kb.Fact{
		{Atom: kb.A("required", kb.C("c1"), kb.N(0.3), kb.N(10)), Truth: kb.True},
		{Atom: kb.A("required", kb.C("c1"), kb.N(0.4), kb.N(21)), Truth: kb.True},
		{Atom: kb.A("announced", kb.N(0.3), kb.N(12.75)), Truth: kb.True},
		{Atom: kb.A("announced", kb.N(0.4), kb.N(17)), Truth: kb.True},
	}); err != nil {
		t.Fatalf("round 1: %v", err)
	}
	out, err := Run(comp, []kb.Fact{
		{Atom: kb.A("announced", kb.N(0.4), kb.N(24.8)), Truth: kb.True},
	})
	if err != nil {
		t.Fatalf("round 2: %v", err)
	}
	found := false
	for _, f := range out {
		if f.Atom.Equal(kb.A("chosen", kb.C("c1"), kb.N(0.4))) {
			found = true
		}
	}
	if !found {
		t.Fatalf("round 2 output = %v, want chosen(c1, 0.4)", out)
	}
}

func buildBidComposition(t *testing.T, o *kb.Ontology) *Composed {
	t.Helper()
	comp := NewComposed("determine_bid", o, 0)
	accept := NewReasoning("determine_acceptability", o, acceptabilityBase(t), "acceptable")
	pick := NewTask("select_bid", o, func(in, out *kb.Store) (bool, error) {
		best := make(map[string]float64)
		for _, a := range in.Query(kb.A("acceptable", kb.V("C"), kb.V("Cut"))) {
			c, cut := a.Args[0].Name, a.Args[1].Num
			if cut >= best[c] {
				best[c] = cut
			}
		}
		changed := false
		for c, cut := range best {
			atom := kb.A("best_cutdown", kb.C(c), kb.N(cut))
			if out.Holds(atom) {
				continue
			}
			if err := out.Assert(atom, kb.True); err != nil {
				return changed, err
			}
			changed = true
		}
		return changed, nil
	})
	if err := comp.AddChild(accept); err != nil {
		t.Fatal(err)
	}
	if err := comp.AddChild(pick); err != nil {
		t.Fatal(err)
	}
	for _, l := range []Link{
		{Name: "announcement_in", From: Endpoint{Port: In}, To: Endpoint{Component: "determine_acceptability", Port: In},
			Map: []PredMap{{From: "announced", To: "offered"}, {From: "required", To: "required"}}},
		{Name: "acceptability_to_selection", From: Endpoint{Component: "determine_acceptability", Port: Out}, To: Endpoint{Component: "select_bid", Port: In}},
		{Name: "bid_out", From: Endpoint{Component: "select_bid", Port: Out}, To: Endpoint{Port: Out},
			Map: []PredMap{{From: "best_cutdown", To: "chosen"}}},
	} {
		if err := comp.AddLink(l); err != nil {
			t.Fatal(err)
		}
	}
	if err := comp.SetControl([]Step{
		{Transfer: "announcement_in"},
		{Activate: "determine_acceptability"},
		{Transfer: "acceptability_to_selection"},
		{Activate: "select_bid"},
		{Transfer: "bid_out"},
	}); err != nil {
		t.Fatal(err)
	}
	return comp
}

func TestAddLinkValidation(t *testing.T) {
	o := testOntology(t)
	comp := NewComposed("c", o, 0)
	tests := []struct {
		name string
		give Link
	}{
		{name: "unnamed", give: Link{From: Endpoint{Port: In}, To: Endpoint{Port: Out}}},
		{name: "unknown source component", give: Link{Name: "l", From: Endpoint{Component: "ghost", Port: Out}, To: Endpoint{Port: Out}}},
		{name: "own output as source", give: Link{Name: "l", From: Endpoint{Port: Out}, To: Endpoint{Port: Out}}},
		{name: "own input as target", give: Link{Name: "l", From: Endpoint{Port: In}, To: Endpoint{Port: In}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := comp.AddLink(tt.give); err == nil {
				t.Fatalf("AddLink(%+v) should fail", tt.give)
			}
		})
	}
}

func TestSetControlValidation(t *testing.T) {
	o := testOntology(t)
	comp := NewComposed("c", o, 0)
	if err := comp.SetControl([]Step{{}}); err == nil {
		t.Fatal("empty step should fail")
	}
	if err := comp.SetControl([]Step{{Activate: "ghost"}}); !errors.Is(err, ErrUnknownComponent) {
		t.Fatalf("unknown component error = %v", err)
	}
	if err := comp.SetControl([]Step{{Transfer: "ghost"}}); err == nil {
		t.Fatal("unknown link should fail")
	}
	if err := comp.SetControl([]Step{{Activate: "a", Transfer: "l"}}); err == nil {
		t.Fatal("step with both fields should fail")
	}
}

func TestDuplicateChildAndLink(t *testing.T) {
	o := testOntology(t)
	comp := NewComposed("c", o, 0)
	task := NewTask("t", o, func(in, out *kb.Store) (bool, error) { return false, nil })
	if err := comp.AddChild(task); err != nil {
		t.Fatal(err)
	}
	if err := comp.AddChild(NewTask("t", o, nil)); err == nil {
		t.Fatal("duplicate child should fail")
	}
	l := Link{Name: "l", From: Endpoint{Port: In}, To: Endpoint{Component: "t", Port: In}}
	if err := comp.AddLink(l); err != nil {
		t.Fatal(err)
	}
	if err := comp.AddLink(l); err == nil {
		t.Fatal("duplicate link should fail")
	}
}

func TestChildLookup(t *testing.T) {
	o := testOntology(t)
	comp := NewComposed("c", o, 0)
	task := NewTask("t", o, func(in, out *kb.Store) (bool, error) { return false, nil })
	if err := comp.AddChild(task); err != nil {
		t.Fatal(err)
	}
	got, err := comp.Child("t")
	if err != nil || got.Name() != "t" {
		t.Fatalf("Child = %v, %v", got, err)
	}
	if _, err := comp.Child("ghost"); !errors.Is(err, ErrUnknownComponent) {
		t.Fatalf("missing child error = %v", err)
	}
}

func TestComposedDetectsNonQuiescence(t *testing.T) {
	o := testOntology(t)
	comp := NewComposed("c", o, 2)
	n := 0.0
	task := NewTask("counter", o, func(in, out *kb.Store) (bool, error) {
		n++
		if err := out.Assert(kb.A("offered", kb.N(n), kb.N(n)), kb.True); err != nil {
			return false, err
		}
		return true, nil // always reports change: never quiesces
	})
	if err := comp.AddChild(task); err != nil {
		t.Fatal(err)
	}
	if err := comp.SetControl([]Step{{Activate: "counter"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := comp.Activate(); !errors.Is(err, ErrNoFixpoint) {
		t.Fatalf("error = %v, want ErrNoFixpoint", err)
	}
}

func TestRunSeedsInvalidFact(t *testing.T) {
	o := testOntology(t)
	comp := NewComposed("c", o, 0)
	if _, err := Run(comp, []kb.Fact{{Atom: kb.A("nosuch", kb.N(1)), Truth: kb.True}}); err == nil {
		t.Fatal("seeding an undeclared predicate should fail")
	}
}

func TestPortString(t *testing.T) {
	if In.String() != "in" || Out.String() != "out" || Port(9).String() != "?" {
		t.Fatal("Port.String mismatch")
	}
}

// TestReasoningPublishesNegativeConclusions exercises DESIRE's explicit
// negative conclusions (ThenFalse) through a component.
func TestReasoningPublishesNegativeConclusions(t *testing.T) {
	o := kb.NewOntology()
	if err := o.DeclarePred("peak_expected", kb.SortNumber); err != nil {
		t.Fatal(err)
	}
	if err := o.DeclarePred("idle", kb.SortNumber); err != nil {
		t.Fatal(err)
	}
	base, err := kb.NewBase("opc", kb.Rule{
		Name:      "peak_means_not_idle",
		If:        []kb.Literal{kb.Pos(kb.A("peak_expected", kb.V("X")))},
		ThenFalse: []kb.Atom{kb.A("idle", kb.V("X"))},
	})
	if err != nil {
		t.Fatal(err)
	}
	comp := NewReasoning("own_process_control", o, base, "idle")
	out, err := Run(comp, []kb.Fact{
		{Atom: kb.A("peak_expected", kb.N(1)), Truth: kb.True},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Truth != kb.False || !out[0].Atom.Equal(kb.A("idle", kb.N(1))) {
		t.Fatalf("output = %v, want idle(1)=false", out)
	}
}

// TestUnchangedActivationDoesNoWork pins the version-driven skip: a second
// activation over unchanged input runs neither the knowledge base nor a
// transfer, a new input fact or an output cleared from outside runs them
// again. The working state's Version counts the work: every activation that
// does run clears and refills it.
func TestUnchangedActivationDoesNoWork(t *testing.T) {
	o := testOntology(t)
	reason := NewReasoning("determine_acceptability", o, acceptabilityBase(t), "acceptable")
	for _, a := range []kb.Atom{
		kb.A("required", kb.C("c1"), kb.N(0.3), kb.N(10)),
		kb.A("required", kb.C("c1"), kb.N(0.4), kb.N(21)),
		kb.A("offered", kb.N(0.3), kb.N(12.75)),
		kb.A("offered", kb.N(0.4), kb.N(17)),
	} {
		if err := reason.Input().AssertTrue(a); err != nil {
			t.Fatal(err)
		}
	}
	if changed, err := reason.Activate(); err != nil || !changed {
		t.Fatalf("first Activate = %v, %v; want a change", changed, err)
	}
	inferred := reason.work.Version()
	if changed, err := reason.Activate(); err != nil || changed {
		t.Fatalf("second Activate = %v, %v; want no change", changed, err)
	}
	if reason.work.Version() != inferred {
		t.Fatal("activation over unchanged input refilled the working state")
	}

	// A new input fact re-runs the knowledge base.
	if err := reason.Input().AssertTrue(kb.A("offered", kb.N(0.4), kb.N(24.8))); err != nil {
		t.Fatal(err)
	}
	if changed, err := reason.Activate(); err != nil || !changed {
		t.Fatalf("Activate after new input = %v, %v; want a change", changed, err)
	}
	if !reason.Output().Holds(kb.A("acceptable", kb.C("c1"), kb.N(0.4))) {
		t.Fatal("new input did not reach the output")
	}

	// So does an output emptied behind the component's back.
	reason.Output().Clear()
	if changed, err := reason.Activate(); err != nil || !changed {
		t.Fatalf("Activate after external Clear = %v, %v; want a change", changed, err)
	}
	if got := reason.Output().Len(); got != 2 {
		t.Fatalf("output holds %d facts after republication, want 2", got)
	}

	// The same through a composition: the confirming cycle and a repeated
	// activation transfer nothing.
	comp := buildBidComposition(t, o)
	if _, err := Run(comp, []kb.Fact{
		{Atom: kb.A("required", kb.C("c1"), kb.N(0.3), kb.N(10)), Truth: kb.True},
		{Atom: kb.A("announced", kb.N(0.3), kb.N(12.75)), Truth: kb.True},
	}); err != nil {
		t.Fatal(err)
	}
	child, err := comp.Child("determine_acceptability")
	if err != nil {
		t.Fatal(err)
	}
	inferred = child.(*Reasoning).work.Version()
	if changed, err := comp.Activate(); err != nil || changed {
		t.Fatalf("repeated composed Activate = %v, %v; want no change", changed, err)
	}
	if child.(*Reasoning).work.Version() != inferred {
		t.Fatal("repeated composed activation ran the knowledge base again")
	}
	comp.Output().Clear()
	if changed, err := comp.Activate(); err != nil || !changed {
		t.Fatalf("composed Activate after external output Clear = %v, %v; want a change", changed, err)
	}
	if !comp.Output().Holds(kb.A("chosen", kb.C("c1"), kb.N(0.3))) {
		t.Fatal("cleared composition output was not republished")
	}
}
