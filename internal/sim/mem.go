package sim

import "encoding/binary"

// pageBytes is the allocation granule of simulated SRAM.
const pageBytes = 4096

// pagedMem is one demand-paged SRAM: a core's private memory, a tile's
// memory-chiplet banks laid end to end, or a dead tile's shadow window.
// A page that was never written reads as zero and costs no host memory;
// the first nonzero store to a page allocates it. Words are 32-bit
// little endian. The page table's length is fixed at construction.
type pagedMem struct {
	pages []*[pageBytes]byte
	size  int
}

func newPagedMem(size int) pagedMem {
	return pagedMem{pages: make([]*[pageBytes]byte, (size+pageBytes-1)/pageBytes), size: size}
}

// load32 reads the word at off.
func (p *pagedMem) load32(off uint32) uint32 {
	if o := off % pageBytes; o <= pageBytes-4 {
		if pg := p.pages[off/pageBytes]; pg != nil {
			return binary.LittleEndian.Uint32(pg[o:])
		}
		return 0
	}
	var v uint32 // an unaligned word straddling two pages
	for i := uint32(0); i < 4; i++ {
		if pg := p.pages[(off+i)/pageBytes]; pg != nil {
			v |= uint32(pg[(off+i)%pageBytes]) << (8 * i)
		}
	}
	return v
}

// store32 writes the word at off.
func (p *pagedMem) store32(off uint32, v uint32) {
	o := off % pageBytes
	if o > pageBytes-4 { // an unaligned word straddling two pages
		for i := uint32(0); i < 4; i++ {
			p.page(off + i)[(off+i)%pageBytes] = byte(v >> (8 * i))
		}
		return
	}
	if v == 0 && p.pages[off/pageBytes] == nil {
		return // zero onto an unwritten page changes nothing
	}
	binary.LittleEndian.PutUint32(p.page(off)[o:], v)
}

// page returns the page holding off, allocating it on first use.
func (p *pagedMem) page(off uint32) *[pageBytes]byte {
	pg := p.pages[off/pageBytes]
	if pg == nil {
		pg = new([pageBytes]byte)
		p.pages[off/pageBytes] = pg
	}
	return pg
}

// apply performs one memory operation (memLoad, memStore, memAmoAdd or
// memAmoMin) on the word at off and returns the word's old value.
func (p *pagedMem) apply(off uint32, op uint32, data uint32) uint32 {
	old := p.load32(off)
	switch op {
	case memStore:
		p.store32(off, data)
	case memAmoAdd:
		p.store32(off, old+data)
	case memAmoMin:
		if int32(data) < int32(old) {
			p.store32(off, data)
		}
	}
	return old
}
