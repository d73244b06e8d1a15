package sdb

// pageLen is the length of a paged table's page, in elements.
const (
	pageShift = 12
	pageLen   = 1 << pageShift
)

// paged is a table indexed by uint32 that grows by whole pages, so what it
// holds is never copied: page 0 grows by append up to pageLen elements, so a
// small table costs what a slice would, and every later page is allocated at
// pageLen. The domain's item records, its pair slab and each attribute's
// postings are paged tables.
type paged[T any] struct {
	pages [][]T // page k holds the elements from k<<pageShift on
	n     int   // elements handed out, skipped ones included
}

// at returns element i.
func (s *paged[T]) at(i uint32) *T { return &s.pages[i>>pageShift][i&(pageLen-1)] }

// span returns the n elements from off, which one grow handed out.
func (s *paged[T]) span(off, n uint32) []T {
	if n == 0 {
		return nil
	}
	lo := off & (pageLen - 1)
	return s.pages[off>>pageShift][lo : lo+n]
}

// grow appends n zero elements in one backing array and returns the first
// one's index. When the last page has no room for all of them, its rest is
// skipped (skip counts it) and they start a new page, or a run of pages on
// one array when they are more than a page holds. A skipped tail is shorter
// than the span that skipped it.
func (s *paged[T]) grow(n int) (off uint32, skip int) {
	if len(s.pages) == 0 && n <= pageLen {
		s.pages = [][]T{nil}
	}
	if room := len(s.pages)<<pageShift - s.n; n > room {
		skip, s.n = room, s.n+room
		run := make([]T, 0, max(1, (n+pageLen-1)>>pageShift)<<pageShift)
		for lo := 0; lo < cap(run); lo += pageLen {
			s.pages = append(s.pages, run[lo:lo]) // each reaches to the run's end
		}
	}
	off = uint32(s.n)
	for left := n; left > 0; {
		k := s.n >> pageShift
		p := s.pages[k]
		take := min(left, pageLen-len(p))
		if len(p)+take > cap(p) { // only page 0 runs out
			p = append(make([]T, 0, min(max(2*cap(p), len(p)+take), pageLen)), p...)
		}
		s.pages[k] = p[:len(p)+take]
		s.n, left = s.n+take, left-take
	}
	return off, skip
}
