package obs

const (
	pageShift = 12
	pageSize  = 1 << pageShift

	// firstPageJump is the capacity at which the first page stops growing by
	// append and becomes a full page: a short run pays for the records it
	// holds, and a long one re-copies a few hundred records, once.
	firstPageJump = 256
)

// Pages is an append-only record store that never re-copies what it holds:
// records live in fixed pages of 4096, in append order, so record i is slot
// i&4095 of page i>>12 for the life of the store. Only the first page grows
// (see firstPageJump); a pointer from At or Append is therefore good until
// the next Append while the store holds fewer than 4096 records, and for
// good after that. The zero value is an empty store; a nil *Pages reads as
// empty.
type Pages[T any] struct {
	pages [][]T
	n     int
}

// Len returns the number of records. Nil-safe.
func (p *Pages[T]) Len() int {
	if p == nil {
		return 0
	}
	return p.n
}

// At returns record i, 0 <= i < Len.
func (p *Pages[T]) At(i int) *T {
	return &p.pages[i>>pageShift][i&(pageSize-1)]
}

// Append adds v as record Len and returns it in place.
func (p *Pages[T]) Append(v T) *T {
	slot := p.n & (pageSize - 1)
	if slot == 0 {
		p.pages = append(p.pages, nil)
	}
	pg := &p.pages[len(p.pages)-1]
	// A full page is either a later page not yet allocated or the first
	// page at the end of its growth by append: both become a whole page.
	if len(*pg) == cap(*pg) && (p.n >= pageSize || cap(*pg) >= firstPageJump) {
		*pg = append(make([]T, 0, pageSize), *pg...)
	}
	*pg = append(*pg, v)
	p.n++
	return &(*pg)[slot]
}
