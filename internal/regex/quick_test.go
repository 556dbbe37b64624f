package regex

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// clamp keeps quick-generated strings small and over a tiny alphabet so
// the properties exercise interesting overlaps.
func clamp(s string, n int) string {
	var b strings.Builder
	for i := 0; i < len(s) && b.Len() < n; i++ {
		b.WriteByte("ab"[int(s[i])%2])
	}
	return b.String()
}

// Property: L(Lit(s)) = {s}.
func TestQuickLitExact(t *testing.T) {
	f := func(sRaw, otherRaw string) bool {
		s := clamp(sRaw, 6)
		other := clamp(otherRaw, 6)
		r := Lit(s)
		if !Match(r, s) {
			return false
		}
		if other != s && Match(r, other) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: star closure — u^k ∈ L((u)*) for all small k.
func TestQuickStarPumping(t *testing.T) {
	f := func(uRaw string, kRaw uint8) bool {
		u := clamp(uRaw, 3)
		if u == "" {
			return true
		}
		k := int(kRaw) % 5
		r := Star(Lit(u))
		return Match(r, strings.Repeat(u, k))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: complement is an exact involution on membership.
func TestQuickComplement(t *testing.T) {
	f := func(sRaw, wRaw string) bool {
		s := clamp(sRaw, 4)
		w := clamp(wRaw, 6)
		r := Union(Lit(s), Concat(Lit("a"), Star(Lit("b"))))
		return Match(r, w) != Match(Comp(r), w)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: intersection is conjunction of memberships.
func TestQuickIntersection(t *testing.T) {
	f := func(wRaw string) bool {
		w := clamp(wRaw, 6)
		r1 := Star(Lit("ab"))
		r2 := Star(Union(Lit("a"), Lit("b")))
		return Match(Inter(r1, r2), w) == (Match(r1, w) && Match(r2, w))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: concatenation splits — w ∈ L(r1 · r2) iff some split of w
// has its prefix in L(r1) and suffix in L(r2).
func TestQuickConcatSplits(t *testing.T) {
	f := func(wRaw string) bool {
		w := clamp(wRaw, 6)
		r1 := Union(Lit("a"), Lit("ab"))
		r2 := Star(Lit("b"))
		direct := Match(Concat(r1, r2), w)
		split := false
		for i := 0; i <= len(w); i++ {
			if Match(r1, w[:i]) && Match(r2, w[i:]) {
				split = true
				break
			}
		}
		return direct == split
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: every enumerated member matches, and lengths respect
// MinLen.
func TestQuickEnumerateMembers(t *testing.T) {
	f := func(uRaw string) bool {
		u := clamp(uRaw, 3)
		if u == "" {
			u = "a"
		}
		r := Plus(Lit(u))
		min, ok := MinLen(r, nil, nil)
		if !ok {
			return false
		}
		for _, s := range Enumerate(r, 8, 20, nil, nil) {
			if !Match(r, s) || len(s) < min {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// structKey computes a regex's key from its structure alone, without
// reading the keys its constructors stored.
func structKey(r Regex) string {
	join := func(rs []Regex, sep string) string {
		parts := make([]string, len(rs))
		for i, s := range rs {
			parts[i] = structKey(s)
		}
		return "(" + strings.Join(parts, sep) + ")"
	}
	switch n := r.(type) {
	case none:
		return "∅"
	case eps:
		return "ε"
	case lit:
		return fmt.Sprintf("L%q", n.s)
	case rng:
		return fmt.Sprintf("R%d-%d", n.lo, n.hi)
	case anyChar:
		return "."
	case star:
		return "(" + structKey(n.r) + ")*"
	case concat:
		return join(n.rs, "·")
	case union:
		return join(n.rs, "|")
	case inter:
		return join(n.rs, "&")
	case comp:
		return "¬(" + structKey(n.r) + ")"
	}
	panic("regex: unknown node")
}

// randRegex builds a random regex of at most the given depth through
// every constructor.
func randRegex(rng *rand.Rand, depth int) Regex {
	if depth == 0 || rng.Intn(4) == 0 {
		switch rng.Intn(5) {
		case 0:
			return None()
		case 1:
			return Eps()
		case 2:
			return Lit(clamp(fmt.Sprint(rng.Int63()), rng.Intn(4)))
		case 3:
			return Range(byte('a'+rng.Intn(3)), byte('a'+rng.Intn(3)))
		}
		return AnyChar()
	}
	sub := func() Regex { return randRegex(rng, depth-1) }
	switch rng.Intn(10) {
	case 0:
		return Star(sub())
	case 1:
		return Plus(sub())
	case 2:
		return Opt(sub())
	case 3:
		return Concat(sub(), sub(), sub())
	case 4:
		return Union(sub(), sub(), sub())
	case 5:
		return Inter(sub(), sub(), sub())
	case 6:
		return Comp(sub())
	case 7:
		return Diff(sub(), sub())
	case 8:
		return All()
	}
	return Derive(sub(), "ab"[rng.Intn(2)])
}

// Property: every constructor stores the key its node's structure
// gives, on random regexes and on their derivatives.
func TestQuickStoredKeys(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := randRegex(rng, 4)
		for _, d := range []Regex{r, Derive(r, 'a'), Derive(Derive(r, 'b'), 'a')} {
			if Key(d) != structKey(d) {
				t.Logf("stored key %s, structural key %s", Key(d), structKey(d))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
