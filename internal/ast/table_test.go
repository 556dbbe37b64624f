package ast

import (
	"fmt"
	"math/big"
	"sync"
	"testing"
)

// Structural equality must imply pointer equality for every constructor.
func TestInternPointerEquality(t *testing.T) {
	x1, x2 := tb.Var("x", SortInt), tb.Var("x", SortInt)
	if x1 != x2 {
		t.Errorf("NewVar not interned: %p vs %p", x1, x2)
	}
	if tb.Var("x", SortReal) == x1 {
		t.Errorf("vars of different sorts interned together")
	}

	if tb.Int(42) != tb.Int(42) {
		t.Errorf("Int not interned")
	}
	if tb.IntBig(big.NewInt(42)) != tb.Int(42) {
		t.Errorf("IntBig and Int of same value not shared")
	}
	if tb.Int(42) == tb.Int(43) {
		t.Errorf("distinct ints interned together")
	}

	if tb.Real(1, 2) != tb.Real(2, 4) {
		t.Errorf("equal rationals (after normalization) not shared")
	}
	if tb.Real(1, 2) == tb.Real(1, 3) {
		t.Errorf("distinct rationals interned together")
	}

	if tb.Str("ab") != tb.Str("ab") {
		t.Errorf("Str not interned")
	}

	a1 := tb.MustApp(OpAdd, x1, tb.Int(1))
	a2 := tb.MustApp(OpAdd, tb.Var("x", SortInt), tb.Int(1))
	if a1 != a2 {
		t.Errorf("structurally equal apps not shared")
	}
	if tb.MustApp(OpAdd, x1, tb.Int(2)) == a1 {
		t.Errorf("distinct apps interned together")
	}

	q1 := tb.MustQuant(true, []SortedVar{{Name: "y", Sort: SortInt}}, tb.Eq(tb.Var("y", SortInt), tb.Int(0)))
	q2 := tb.MustQuant(true, []SortedVar{{Name: "y", Sort: SortInt}}, tb.Eq(tb.Var("y", SortInt), tb.Int(0)))
	if q1 != q2 {
		t.Errorf("structurally equal quantifiers not shared")
	}
	if tb.MustQuant(false, q1.Bound, q1.Body) == q1 {
		t.Errorf("forall and exists interned together")
	}
}

// Rebuilding a term through transformations must return the original
// node when nothing changed, and the identical interned node when the
// same structure is rebuilt from scratch.
func TestInternTransformIdentity(t *testing.T) {
	x := tb.Var("x", SortInt)
	orig := tb.And(tb.Le(tb.Int(0), x), tb.Lt(x, tb.Int(10)))
	rebuilt := tb.And(tb.Le(tb.Int(0), tb.Var("x", SortInt)), tb.Lt(tb.Var("x", SortInt), tb.Int(10)))
	if orig != rebuilt {
		t.Fatalf("rebuilt term is a distinct node")
	}
	same := tb.Transform(orig, func(t Term) Term { return t })
	if same != orig {
		t.Fatalf("identity Transform returned a distinct node")
	}
}

// UncheckedApp forgeries must not alias well-sorted nodes of the same
// shape (the result sort is part of the intern key), while equal
// forgeries still share a node.
func TestInternUncheckedAppSortIsolation(t *testing.T) {
	good := tb.MustApp(OpAdd, tb.Int(1), tb.Int(2))
	forged := tb.UncheckedApp(OpAdd, SortBool, tb.Int(1), tb.Int(2))
	if Term(good) == Term(forged) {
		t.Fatalf("ill-sorted forgery aliased the well-sorted node")
	}
	if forged.Sort() != SortBool {
		t.Fatalf("forged sort lost: got %v", forged.Sort())
	}
	if good.(*App).Sort() != SortInt {
		t.Fatalf("well-sorted node corrupted: got %v", good.(*App).Sort())
	}
	if tb.UncheckedApp(OpAdd, SortBool, tb.Int(1), tb.Int(2)) != forged {
		t.Fatalf("equal forgeries not shared")
	}
}

// Hash must agree with Equal: equal terms hash equal, and the cached
// hash matches a fresh recomputation on an uncached clone.
func TestHashConsistentWithEqual(t *testing.T) {
	x := tb.Var("x", SortInt)
	terms := []Term{
		x, True, False, tb.Int(-7), tb.Real(3, 4), tb.Str("s"),
		tb.MustApp(OpAdd, x, tb.Int(1)),
		tb.MustQuant(false, []SortedVar{{Name: "z", Sort: SortReal}}, tb.Eq(tb.Var("z", SortReal), tb.Real(0, 1))),
	}
	for _, tm := range terms {
		if Hash(tm) == 0 {
			t.Errorf("zero hash for %s", Print(tm))
		}
	}
	// A forged uncached clone of an interned app must hash identically.
	a := tb.MustApp(OpAdd, x, tb.Int(1)).(*App)
	clone := &App{Op: a.Op, Args: a.Args, sort: a.sort}
	if Hash(clone) != Hash(a) {
		t.Errorf("uncached clone hash differs from interned hash")
	}
	if !Equal(clone, a) {
		t.Errorf("Equal rejects uncached clone")
	}
	// Sort is excluded from the hash because Equal ignores App sorts.
	forged := &App{Op: a.Op, Args: a.Args, sort: SortBool}
	if Hash(forged) != Hash(a) {
		t.Errorf("hash separates terms Equal considers the same")
	}
}

// Workers build in task tables of their own over one frozen campaign
// table (run under -race): corpus terms resolve to the campaign's node
// from every task, task-built terms stay private to their table, the
// frozen table refuses inserts, and a worker's reused table holds only
// the current task's terms.
func TestTableCampaignAndTasks(t *testing.T) {
	campaign := NewTable(nil)
	x := campaign.Var("x", SortInt)
	corpus := campaign.And(campaign.Le(campaign.Int(0), x), campaign.Lt(x, campaign.Int(100)))
	campaign.Freeze()
	frozenLen := campaign.Len()

	const workers, tasks = 8, 200
	shared := make([]Term, workers) // the same fresh structure, built by each worker
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tab := NewTable(campaign)
			storage := 0
			for task := 0; task < tasks; task++ {
				tab.Reset()
				xt := tab.Var("x", SortInt)
				rebuilt := tab.And(tab.Le(tab.Int(0), xt), tab.Lt(xt, tab.Int(100)))
				if xt != x || rebuilt != corpus {
					t.Errorf("worker %d task %d: corpus term rebuilt as a distinct node", w, task)
					return
				}
				// Four fresh nodes: a variable, a literal, an atom and a
				// conjunction over the corpus term.
				v := tab.Var(fmt.Sprintf("v%d_%d", w, task), SortInt)
				atom := tab.Lt(v, tab.Int(int64(1000+task)))
				f := tab.And(corpus, atom)
				if tab.And(corpus, tab.Lt(tab.Var(v.Name, SortInt), tab.Int(int64(1000+task)))) != f {
					t.Errorf("worker %d task %d: task term rebuilt as a distinct node", w, task)
					return
				}
				if got, _ := campaign.find(Hash(f), func(t Term) bool { return t == f }); got != nil {
					t.Errorf("worker %d task %d: task term leaked into the campaign table", w, task)
					return
				}
				if task == 0 {
					storage = len(tab.slots)
				}
				if n := tab.Len(); n != 4 {
					t.Errorf("worker %d task %d: table holds %d terms, want the task's 4", w, task, n)
					return
				}
			}
			if len(tab.slots) != storage {
				t.Errorf("worker %d: table storage grew from %d to %d slots across tasks", w, storage, len(tab.slots))
			}
			shared[w] = tab.Gt(tab.Var("fresh", SortInt), x)
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if shared[w] == shared[0] || !Equal(shared[w], shared[0]) {
			t.Fatalf("worker %d: want a private node equal to worker 0's", w)
		}
	}
	if campaign.Len() != frozenLen {
		t.Fatalf("campaign table grew from %d to %d terms while frozen", frozenLen, campaign.Len())
	}
	// Lookups of terms the frozen table holds still succeed.
	if campaign.Int(0) != campaign.Int(0) || campaign.Var("x", SortInt) != x {
		t.Fatalf("frozen table lookup returned a distinct node")
	}
	mustPanic(t, "insert into a frozen table", func() { campaign.Var("y", SortInt) })
	mustPanic(t, "Reset of a frozen table", campaign.Reset)
	mustPanic(t, "NewTable over an unfrozen parent", func() { NewTable(NewTable(nil)) })
}

// Import adopts a foreign node whose children are already the chain's,
// returns the chain's own node for a structure it already holds, and
// rebuilds a node whose children were re-interned.
func TestTableImport(t *testing.T) {
	slot := NewTable(nil)
	x := slot.Var("x", SortInt)
	atom := slot.Le(slot.Int(0), x)

	campaign := NewTable(nil)
	if got := campaign.Import(atom); got != atom {
		t.Fatalf("first import copied the node instead of adopting it")
	}
	other := NewTable(nil)
	atom2 := other.And(other.Le(other.Int(0), other.Var("x", SortInt)), other.Gt(other.Var("y", SortInt), other.Int(1)))
	got := campaign.Import(atom2)
	if got == atom2 || !Equal(got, atom2) {
		t.Fatalf("import of a term with a known child did not rebuild it")
	}
	if got.(*App).Args[0] != atom {
		t.Fatalf("imported child is not the campaign's node")
	}
	if campaign.Import(got) != got {
		t.Fatalf("import of a chain node changed it")
	}
	q := other.MustQuant(true, []SortedVar{{Name: "z", Sort: SortInt}}, other.Le(other.Int(0), other.Var("x", SortInt)))
	if iq := campaign.Import(q).(*Quant); iq.Body != atom {
		t.Fatalf("imported quantifier body is not the campaign's node")
	}
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: no panic", what)
		}
	}()
	f()
}
