package server

import (
	"container/list"
	"crypto/sha256"
	"sync"

	"repro/internal/arch"
	"repro/internal/pipeline"
	"repro/internal/taskgraph"
)

// The workload memo sits in front of the JSON parse on /plan and
// /plan/batch: it maps the SHA-256 of a raw body to the frozen graph,
// platform and fingerprint parsed from it, so a repeated body skips the
// parse on every peer it crosses. It replaces parsing only; a body that
// differs by a single byte misses and is parsed, and only successful
// parses are memoised. SHA-256 rather than a faster non-cryptographic
// hash, because a false hit would serve another workload's plan.

// parsedWorkload is one decoded plan request body: its frozen graph
// and platform (shared read-only, like the plans the cache serves) and
// their pipeline.Fingerprint.
type parsedWorkload struct {
	g  *taskgraph.Graph
	p  *arch.Platform
	fp uint64
}

// workloadMemo is a bounded LRU from body digest to parsedWorkload.
type workloadMemo struct {
	mu    sync.Mutex
	cap   int
	lru   *list.List // front = most recently used; values are *memoEntry
	byDig map[[sha256.Size]byte]*list.Element
}

type memoEntry struct {
	dig [sha256.Size]byte
	wl  parsedWorkload
}

func newWorkloadMemo(capacity int) *workloadMemo {
	return &workloadMemo{cap: capacity, lru: list.New(), byDig: make(map[[sha256.Size]byte]*list.Element)}
}

func (m *workloadMemo) get(dig [sha256.Size]byte) (parsedWorkload, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	el, ok := m.byDig[dig]
	if !ok {
		return parsedWorkload{}, false
	}
	m.lru.MoveToFront(el)
	return el.Value.(*memoEntry).wl, true
}

func (m *workloadMemo) put(dig [sha256.Size]byte, wl parsedWorkload) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if el, ok := m.byDig[dig]; ok {
		// A concurrent miss parsed the same body first; keep its entry.
		m.lru.MoveToFront(el)
		return
	}
	m.byDig[dig] = m.lru.PushFront(&memoEntry{dig: dig, wl: wl})
	if m.lru.Len() > m.cap {
		oldest := m.lru.Back()
		m.lru.Remove(oldest)
		delete(m.byDig, oldest.Value.(*memoEntry).dig)
	}
}

func (m *workloadMemo) len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lru.Len()
}

// workload returns the parsed workload of a plan request body: from the
// memo when these exact bytes were parsed before, otherwise by parsing
// and fingerprinting them (and memoising the result if the parse
// succeeded).
func (s *Server) workload(raw []byte) (parsedWorkload, error) {
	dig := sha256.Sum256(raw)
	if wl, ok := s.memo.get(dig); ok {
		s.memoHits.Add(1)
		return wl, nil
	}
	s.memoMisses.Add(1)
	g, p, err := readWorkload(raw)
	if err != nil {
		return parsedWorkload{}, err
	}
	wl := parsedWorkload{g: g, p: p, fp: pipeline.Fingerprint(g, p)}
	s.memo.put(dig, wl)
	return wl, nil
}
