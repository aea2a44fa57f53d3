package noc

import "waferscale/internal/geom"

// The packet store holds every packet in the system (queued or in
// flight, both networks) once, under an int32 handle that FIFOs and
// flights carry. It grows in chunks of chunkLen packets that are never
// moved or copied, so a network pays one allocation per chunkLen
// packets of peak population and nothing once it has reached its peak.

const (
	chunkBits = 8
	chunkLen  = 1 << chunkBits
	chunkMask = chunkLen - 1
)

// route is a packet handle's 12-byte routing record, all that switch
// allocation and launching touch: Src, Dst and the hop count. int16 holds any
// coordinate, since grid sides are capped at 1<<15. A free handle's
// hops links the free stack instead.
type route struct {
	srcX, srcY, dstX, dstY int16
	hops                   int32
}

func (rt *route) src() geom.Coord { return geom.Coord{X: int(rt.srcX), Y: int(rt.srcY)} }
func (rt *route) dst() geom.Coord { return geom.Coord{X: int(rt.dstX), Y: int(rt.dstY)} }

// body is the rest of a packet but DeliveredAt, which ejection stamps.
// net is 0 or 1: Inject and Forward index the networks with it first.
type body struct {
	id, payload uint64
	injectedAt  int64
	kind        Kind
	tag         uint32
	net         uint8
}

// chunk is one block of the store: the bodies and routing records of
// chunkLen consecutive handles.
type chunk struct {
	body  [chunkLen]body
	route [chunkLen]route
}

// packetStore is the chunked packet arena. Handles [0, n) have been
// handed out; free is the top of the LIFO of released ones (-1 when
// empty), and live counts the rest, so Drained is O(1).
type packetStore struct {
	chunks []*chunk
	n      int32
	free   int32
	live   int
}

// rt returns h's routing record.
func (ps *packetStore) rt(h int32) *route { return &ps.chunks[h>>chunkBits].route[h&chunkMask] }

// body returns h's body.
func (ps *packetStore) body(h int32) *body { return &ps.chunks[h>>chunkBits].body[h&chunkMask] }

// take stores p under the most recently freed handle, or under a fresh
// one, adding a chunk when the last is full.
func (ps *packetStore) take(p Packet) int32 {
	h := ps.free
	if h >= 0 {
		ps.free = ps.rt(h).hops
	} else {
		h = ps.n
		if int(h>>chunkBits) == len(ps.chunks) {
			ps.chunks = append(ps.chunks, new(chunk))
		}
		ps.n++
	}
	c, k := ps.chunks[h>>chunkBits], h&chunkMask
	c.body[k] = body{p.ID, p.Payload, p.InjectedAt, p.Kind, p.Tag, uint8(p.Net)}
	c.route[k] = route{int16(p.Src.X), int16(p.Src.Y), int16(p.Dst.X), int16(p.Dst.Y), int32(p.Hops)}
	ps.live++
	return h
}

// release frees h for the next take.
func (ps *packetStore) release(h int32) {
	ps.rt(h).hops = ps.free
	ps.free = h
	ps.live--
}
