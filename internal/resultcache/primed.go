package resultcache

import (
	"bytes"
	"encoding/gob"
	"sync"
)

// A cache hit decodes two single-value gob streams: the envelope and the
// Result payload inside it. Each stream was written by a fresh encoder, so
// it opens with the type-definition messages for its value's whole type
// tree, followed by the one value message. A fresh gob.Decoder has to
// read those definitions and compile a decode engine for them on every
// hit, and for a Result that compile dominates the cost of the hit.
//
// The primed table keeps a small set of decoders that have already read a
// stream's type definitions, keyed by the exact bytes of those
// definitions. A later stream with the same definition bytes then only
// needs its value message decoded. Keying by the bytes rather than by the
// Go type is what makes this sound across processes: gob assigns type ids
// per encoder, so two writers of the same type may number it differently,
// and a decoder is only reused for streams whose definitions — ids
// included — match the ones it has read.

// maxPrimed bounds the table. A store in practice sees one definition
// prefix for envelopes and one for Results; the bound only stops damaged
// or adversarial entries from growing the table.
const maxPrimed = 16

type primedDecoder struct {
	mu  sync.Mutex // held for the whole of one decode
	src bytes.Reader
	dec *gob.Decoder
}

var primed = struct {
	mu sync.Mutex
	m  map[string]*primedDecoder
}{m: make(map[string]*primedDecoder)}

// decodeGob decodes the single-value gob stream data into v (a pointer),
// with exactly the outcome a fresh gob.NewDecoder(data).Decode(v) has.
func decodeGob(data []byte, v any) error {
	n, ok := splitGob(data)
	var p *primedDecoder
	var fresh bool
	if ok {
		p, fresh = acquirePrimed(data[:n])
	}
	if p == nil {
		// Not a single-value stream, or its decoder is busy.
		return gob.NewDecoder(bytes.NewReader(data)).Decode(v)
	}
	defer p.mu.Unlock()
	if fresh {
		// A new decoder reads the whole stream, which primes it with the
		// definitions as a side effect of the first decode.
		p.src.Reset(data)
	} else {
		p.src.Reset(data[n:])
	}
	err := p.dec.Decode(v)
	p.src.Reset(nil) // do not pin the caller's bytes in the table
	if err != nil {
		// A decoder that failed may hold half-registered types; drop it.
		dropPrimed(data[:n], p)
	}
	return err
}

// acquirePrimed returns the locked decoder primed with prefix, creating
// one (fresh=true, not yet primed) when the table has none. It returns
// nil when the prefix's decoder is busy, or when the table is full and
// every decoder in it is busy.
func acquirePrimed(prefix []byte) (p *primedDecoder, fresh bool) {
	primed.mu.Lock()
	defer primed.mu.Unlock()
	if p, ok := primed.m[string(prefix)]; ok {
		if !p.mu.TryLock() {
			return nil, false
		}
		return p, false
	}
	if len(primed.m) >= maxPrimed {
		evicted := false
		for k, q := range primed.m {
			if q.mu.TryLock() {
				delete(primed.m, k)
				q.mu.Unlock()
				evicted = true
				break
			}
		}
		if !evicted {
			return nil, false
		}
	}
	p = new(primedDecoder)
	p.dec = gob.NewDecoder(&p.src)
	p.mu.Lock()
	primed.m[string(prefix)] = p
	return p, true
}

// dropPrimed removes p from the table if it is still prefix's decoder.
func dropPrimed(prefix []byte, p *primedDecoder) {
	primed.mu.Lock()
	if primed.m[string(prefix)] == p {
		delete(primed.m, string(prefix))
	}
	primed.mu.Unlock()
}

// primedLen reports the table's size, for the bound tests.
func primedLen() int {
	primed.mu.Lock()
	defer primed.mu.Unlock()
	return len(primed.m)
}

// splitGob finds the end of a gob stream's leading type-definition
// messages: n is the length of that prefix and data[n:] is exactly one
// value message. Framing per the encoding/gob wire format: every message
// is an unsigned byte count followed by that many bytes, which open with
// a signed type id — negative for a type definition, positive for a
// value. ok is false for anything else (no value message, a second value
// message, trailing bytes, a malformed count or id).
func splitGob(data []byte) (n int, ok bool) {
	for off := 0; off < len(data); {
		count, w, ok := gobUint(data[off:])
		if !ok || count > uint64(len(data)-off-w) {
			return 0, false
		}
		body := data[off+w : off+w+int(count)]
		u, _, ok := gobUint(body)
		if !ok {
			return 0, false
		}
		id := int64(u >> 1)
		if u&1 != 0 {
			id = ^id
		}
		next := off + w + int(count)
		switch {
		case id < 0:
			off = next
		case id > 0 && next == len(data):
			return off, true
		default:
			return 0, false
		}
	}
	return 0, false
}

// gobUint decodes one gob unsigned integer: a byte below 0x80 is the
// value itself; otherwise the byte is the negated count of big-endian
// value bytes that follow.
func gobUint(b []byte) (x uint64, n int, ok bool) {
	if len(b) == 0 {
		return 0, 0, false
	}
	if b[0] < 0x80 {
		return uint64(b[0]), 1, true
	}
	c := -int(int8(b[0]))
	if c > 8 || len(b) < 1+c {
		return 0, 0, false
	}
	for _, by := range b[1 : 1+c] {
		x = x<<8 | uint64(by)
	}
	return x, 1 + c, true
}
