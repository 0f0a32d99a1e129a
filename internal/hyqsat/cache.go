package hyqsat

import (
	"encoding/binary"

	"hyqsat/internal/anneal"
	"hyqsat/internal/qubo"
)

// embedCacheEntry is one memoised output of the frontend pipeline
// (encode → embed → restrict → adjust → normalise → program) for a clause
// queue. embedded == 0 marks a queue the embedder could not use at all (skip
// QA for it).
type embedCacheEntry struct {
	embEnc   *qubo.Encoding
	ep       *anneal.EmbeddedProblem
	embedded int
}

// embedCacheCap bounds the solver's embedding memo; the memo is cleared when
// it reaches this many entries, which bounds retained EmbeddedProblems to a
// few MB.
const embedCacheCap = 512

// embedQueue returns the frontend pipeline output for a clause queue, from
// the solver's memo when the same queue content was embedded before. The key
// is the queue's literal content, not its clause indices, so two queues
// naming identical clauses share an entry. Only the solving goroutine uses
// the memo, so it takes no lock.
func (s *Solver) embedQueue(queueIdx []int) (ent *embedCacheEntry, hit bool) {
	s.keyBuf = s.keyBuf[:0]
	for _, ci := range queueIdx {
		for _, l := range s.formula.Clauses[ci] {
			s.keyBuf = binary.LittleEndian.AppendUint32(s.keyBuf, uint32(l))
		}
		s.keyBuf = binary.LittleEndian.AppendUint32(s.keyBuf, ^uint32(0)) // clause end
	}
	if ent, ok := s.cache[string(s.keyBuf)]; ok {
		s.m.cacheHits.Inc()
		return ent, true
	}
	s.m.cacheMisses.Inc()
	ent = s.encodeAndEmbed(queueIdx)
	if len(s.cache) >= embedCacheCap {
		clear(s.cache)
	}
	s.cache[string(s.keyBuf)] = ent
	return ent, false
}
