package fragment

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"openwf/internal/model"
	"openwf/internal/testutil"
)

func lbl(ls ...string) []model.LabelID {
	out := make([]model.LabelID, len(ls))
	for i, l := range ls {
		out[i] = model.LabelID(l)
	}
	return out
}

func frag(t *testing.T, name, in, out string) *model.Fragment {
	t.Helper()
	f, err := model.NewFragment(name, model.Task{
		ID: model.TaskID("task-" + name), Mode: model.Conjunctive,
		Inputs: lbl(in), Outputs: lbl(out),
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestAddAndQuery(t *testing.T) {
	m := NewManager()
	if err := m.Add(frag(t, "f1", "a", "b")); err != nil {
		t.Fatal(err)
	}
	if err := m.Add(frag(t, "f2", "b", "c")); err != nil {
		t.Fatal(err)
	}
	if m.Len() != 2 {
		t.Errorf("Len = %d", m.Len())
	}
	got := m.Consuming(lbl("a"))
	if len(got) != 1 || got[0].Name != "f1" {
		t.Errorf("Consuming(a) = %v", got)
	}
	got = m.Consuming(lbl("a", "b"))
	if len(got) != 2 {
		t.Errorf("Consuming(a,b) = %v", got)
	}
	if got := m.Consuming(lbl("zzz")); len(got) != 0 {
		t.Errorf("Consuming(zzz) = %v", got)
	}
	all := m.All()
	if len(all) != 2 || all[0].Name != "f1" || all[1].Name != "f2" {
		t.Errorf("All = %v", all)
	}
}

func TestAddRejectsInvalid(t *testing.T) {
	m := NewManager()
	bad := &model.Fragment{Name: "bad"} // no tasks: invalid workflow
	if err := m.Add(bad); err == nil {
		t.Error("invalid fragment accepted")
	}
}

func TestAddReplacesByName(t *testing.T) {
	m := NewManager()
	if err := m.Add(frag(t, "f", "a", "b")); err != nil {
		t.Fatal(err)
	}
	// Same name, different task consuming c instead of a.
	if err := m.Add(frag(t, "f", "c", "d")); err != nil {
		t.Fatal(err)
	}
	if m.Len() != 1 {
		t.Errorf("Len = %d after replacement", m.Len())
	}
	if got := m.Consuming(lbl("a")); len(got) != 0 {
		t.Errorf("stale index entry: %v", got)
	}
	if got := m.Consuming(lbl("c")); len(got) != 1 {
		t.Errorf("replacement not indexed: %v", got)
	}
}

func TestRemove(t *testing.T) {
	m := NewManager()
	if err := m.Add(frag(t, "f", "a", "b")); err != nil {
		t.Fatal(err)
	}
	if !m.Remove("f") {
		t.Error("Remove returned false")
	}
	if m.Remove("f") {
		t.Error("second Remove returned true")
	}
	if got := m.Consuming(lbl("a")); len(got) != 0 {
		t.Errorf("index kept removed fragment: %v", got)
	}
}

// TestAddIsolatesStoreFromCaller: Add is the one place that clones, so
// a caller that keeps modifying its own fragment after Add cannot change
// what the store answers.
func TestAddIsolatesStoreFromCaller(t *testing.T) {
	m := NewManager()
	f := frag(t, "f", "a", "b")
	if err := m.Add(f); err != nil {
		t.Fatal(err)
	}
	f.Tasks[0].Inputs[0] = "mutated"
	f.Name = "renamed"
	got := m.Consuming(lbl("a"))
	if len(got) != 1 || got[0].Name != "f" || got[0].Tasks[0].Inputs[0] != "a" {
		t.Fatalf("store changed with the caller's copy: %v", got)
	}
	if got := m.Consuming(lbl("mutated")); len(got) != 0 {
		t.Fatalf("caller's mutation reached the index: %v", got)
	}
}

// TestConsumingSharesStoredFragments pins the reply contract: stored
// fragments themselves (no copies), in name order, each once even when
// it consumes several of the queried labels or a label is queried twice.
func TestConsumingSharesStoredFragments(t *testing.T) {
	m := NewManager()
	multi, err := model.NewFragment("m-both",
		model.Task{ID: "t1", Mode: model.Conjunctive, Inputs: lbl("a"), Outputs: lbl("x")},
		model.Task{ID: "t2", Mode: model.Conjunctive, Inputs: lbl("b", "a"), Outputs: lbl("y")},
	)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []*model.Fragment{frag(t, "z-b", "b", "c"), multi, frag(t, "a-a", "a", "d"), frag(t, "q-other", "e", "f")} {
		if err := m.Add(f); err != nil {
			t.Fatal(err)
		}
	}
	got := m.Consuming(lbl("b", "a", "b"))
	var names []string
	for _, f := range got {
		names = append(names, f.Name)
	}
	if fmt.Sprint(names) != "[a-a m-both z-b]" {
		t.Fatalf("Consuming(b,a,b) = %v, want [a-a m-both z-b]", names)
	}
	all := m.All()
	byName := make(map[string]*model.Fragment)
	for _, f := range all {
		byName[f.Name] = f
	}
	for _, f := range got {
		if byName[f.Name] != f {
			t.Errorf("Consuming returned a copy of %q, not the stored fragment", f.Name)
		}
	}
	if again := m.Consuming(lbl("a")); again[1] != got[1] {
		t.Error("two queries returned different values for one stored fragment")
	}
}

// TestReplaceAndRemoveLeaveNoStaleIndex checks the label index itself
// after replace-by-name and Remove: every list holds live fragments
// only, sorted by name, each once, and no label keeps an empty list.
func TestReplaceAndRemoveLeaveNoStaleIndex(t *testing.T) {
	m := NewManager()
	check := func(step string) {
		t.Helper()
		for l, list := range m.consumers {
			if len(list) == 0 {
				t.Fatalf("%s: label %q keeps an empty list", step, l)
			}
			for i, f := range list {
				if m.frags[f.Name] != f {
					t.Fatalf("%s: label %q lists a dead fragment %q", step, l, f.Name)
				}
				if i > 0 && list[i-1].Name >= f.Name {
					t.Fatalf("%s: label %q list not strictly sorted: %q then %q", step, l, list[i-1].Name, f.Name)
				}
				if !f.ConsumesAny(map[model.LabelID]struct{}{l: {}}) {
					t.Fatalf("%s: label %q lists %q, which does not consume it", step, l, f.Name)
				}
			}
		}
	}
	two, err := model.NewFragment("f",
		model.Task{ID: "t1", Mode: model.Conjunctive, Inputs: lbl("a"), Outputs: lbl("b")},
		model.Task{ID: "t2", Mode: model.Conjunctive, Inputs: lbl("a", "b"), Outputs: lbl("c")},
	)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []*model.Fragment{two, frag(t, "g", "a", "d"), frag(t, "e", "b", "d")} {
		if err := m.Add(f); err != nil {
			t.Fatal(err)
		}
	}
	check("add")
	if err := m.Add(frag(t, "f", "x", "y")); err != nil { // replaces both of f's tasks
		t.Fatal(err)
	}
	check("replace")
	if got := m.Consuming(lbl("a")); len(got) != 1 || got[0].Name != "g" {
		t.Fatalf("after replace Consuming(a) = %v, want [g]", got)
	}
	m.Remove("g")
	m.Remove("e")
	check("remove")
	if len(m.consumers) != 1 || len(m.consumers["x"]) != 1 {
		t.Fatalf("index after removes = %v, want only x -> [f]", m.consumers)
	}
	m.Remove("f")
	check("remove all")
	if len(m.consumers) != 0 {
		t.Fatalf("empty store keeps index entries: %v", m.consumers)
	}
}

// TestConsumingAllocBound pins a warmed query at the result slice alone:
// no name set, no per-name lookup, no clones.
func TestConsumingAllocBound(t *testing.T) {
	m := NewManager()
	for i := 0; i < 50; i++ {
		if err := m.Add(frag(t, fmt.Sprintf("f%02d", i), fmt.Sprintf("l%d", i%10), fmt.Sprintf("o%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	query := lbl("l1", "l3", "l5", "l7", "nobody")
	testutil.AllocBound(t, 1, func() {
		if got := m.Consuming(query); len(got) != 20 {
			t.Fatalf("Consuming returned %d fragments, want 20", len(got))
		}
	})
}

func TestMultiTaskFragmentIndexing(t *testing.T) {
	m := NewManager()
	f, err := model.NewFragment("chain",
		model.Task{ID: "t1", Mode: model.Conjunctive, Inputs: lbl("a"), Outputs: lbl("b")},
		model.Task{ID: "t2", Mode: model.Conjunctive, Inputs: lbl("b"), Outputs: lbl("c")},
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Add(f); err != nil {
		t.Fatal(err)
	}
	// The fragment matches a query for either consumed label, once.
	for _, l := range []string{"a", "b"} {
		got := m.Consuming(lbl(l))
		if len(got) != 1 {
			t.Errorf("Consuming(%s) = %d fragments", l, len(got))
		}
	}
	got := m.Consuming(lbl("a", "b"))
	if len(got) != 1 {
		t.Errorf("Consuming(a,b) returned %d fragments, want 1 (dedup)", len(got))
	}
}

// TestPropConsumingMatchesLinearScan: the index answers queries exactly
// like a naive scan over all fragments.
func TestPropConsumingMatchesLinearScan(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := NewManager()
		var frags []*model.Fragment
		labelU := []string{"a", "b", "c", "d", "e", "f"}
		for i := 0; i < 10; i++ {
			in := labelU[rng.Intn(len(labelU))]
			out := labelU[rng.Intn(len(labelU))]
			if in == out {
				continue
			}
			fr, err := model.NewFragment(fmt.Sprintf("f%d", i), model.Task{
				ID: model.TaskID(fmt.Sprintf("t%d", i)), Mode: model.Conjunctive,
				Inputs: lbl(in), Outputs: lbl(out),
			})
			if err != nil {
				return false
			}
			if err := m.Add(fr); err != nil {
				return false
			}
			frags = append(frags, fr)
		}
		query := lbl(labelU[rng.Intn(len(labelU))], labelU[rng.Intn(len(labelU))])
		set := make(map[model.LabelID]struct{})
		for _, l := range query {
			set[l] = struct{}{}
		}
		want := make(map[string]bool)
		for _, fr := range frags {
			if fr.ConsumesAny(set) {
				want[fr.Name] = true
			}
		}
		got := m.Consuming(query)
		if len(got) != len(want) {
			return false
		}
		for _, fr := range got {
			if !want[fr.Name] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
