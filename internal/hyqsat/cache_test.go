package hyqsat

import (
	"testing"

	"hyqsat/internal/cnf"
)

// cacheFormula has four clauses; clause 3 repeats clause 0's content.
func cacheFormula() *cnf.Formula {
	f := cnf.New(6)
	f.AddClause(cnf.NewClause(1, -2, 3))
	f.AddClause(cnf.NewClause(-1, 4, 5))
	f.AddClause(cnf.NewClause(2, -5, 6))
	f.AddClause(cnf.NewClause(1, -2, 3))
	return f
}

// TestEmbedCacheUnit exercises the memo directly: a repeated queue hits and
// returns the stored entry, order matters, keys are clause content rather
// than clause indices, and the memo is cleared when it reaches its cap.
func TestEmbedCacheUnit(t *testing.T) {
	s := New(cacheFormula(), simOpts(1))
	e1, hit := s.embedQueue([]int{0, 1})
	if hit || e1.embedded == 0 {
		t.Fatalf("first lookup: hit=%v embedded=%d, want a miss that embeds", hit, e1.embedded)
	}
	if got, hit := s.embedQueue([]int{0, 1}); !hit || got != e1 {
		t.Fatal("repeated queue did not hit its stored entry")
	}
	if _, hit := s.embedQueue([]int{1, 0}); hit {
		t.Fatal("reordered queue must miss")
	}
	if got, hit := s.embedQueue([]int{3, 1}); !hit || got != e1 {
		t.Fatal("queue with identical clause content must hit")
	}
	st := s.Stats()
	if st.EmbedCacheHits != 2 || st.EmbedCacheMisses != 2 {
		t.Fatalf("hits/misses = %d/%d, want 2/2", st.EmbedCacheHits, st.EmbedCacheMisses)
	}

	for i := len(s.cache); i < embedCacheCap; i++ {
		s.cache[string(rune(i))] = &embedCacheEntry{}
	}
	if _, hit := s.embedQueue([]int{2}); hit {
		t.Fatal("new queue hit a full memo")
	}
	if len(s.cache) != 1 {
		t.Fatalf("memo holds %d entries after reaching its cap, want 1", len(s.cache))
	}
}

// TestEmbedCacheKeyNotAliased checks stored keys do not alias the reused key
// buffer: building the next queue's key must not corrupt an earlier entry.
func TestEmbedCacheKeyNotAliased(t *testing.T) {
	s := New(cacheFormula(), simOpts(1))
	e, _ := s.embedQueue([]int{0, 1, 2})
	s.embedQueue([]int{2, 1})
	if got, hit := s.embedQueue([]int{0, 1, 2}); !hit || got != e {
		t.Fatal("lookup by content failed after the key buffer was reused")
	}
}
