package view

import (
	"bufio"
	"io"

	"repro/internal/relation"
	"repro/internal/ring"
)

// Partial format — a shard's maintained result relation, serialized for
// cross-shard ring-merging (the wire body of GET /v1/partial):
//
//	magic "FIVMPART" | version u8 | codec tag | relation body
//	(writeRelation: attr count | attrs... | tuple count |
//	per tuple: encoded key | payload (ring codec))
//
// Unlike a snapshot (which persists input relations and recomputes the
// views), a partial carries the RESULT relation: partials from shards
// owning disjoint key-ranges of the anchor relation sum to the global
// result under the ring, exactly, by associativity and commutativity of
// ring addition. The codec tag makes a partial self-describing across
// engine kinds, so merging e.g. a count partial into a covar merger
// fails fast instead of misparsing payload bytes.

const (
	partialMagic   = "FIVMPART"
	partialVersion = 1
)

// WritePartial serializes a result relation — the tree's live Result, or
// a frozen copy of it — to w using codec for payloads. res is only read.
func WritePartial[V any](w io.Writer, codec ring.Codec[V], res *relation.Map[V]) error {
	bw := bufio.NewWriter(w)
	writeHeader(bw, partialMagic, partialVersion, codecTag(codec))
	if err := writeRelation(bw, codec, res); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadPartial decodes one partial result relation from r. The partial's
// schema must equal the tree's result schema (same query shape on every
// shard); the returned relation is freshly allocated and safe to merge
// or mutate.
func (t *Tree[V]) ReadPartial(r io.Reader, codec ring.Codec[V]) (*relation.Map[V], error) {
	br := bufio.NewReader(r)
	if err := readHeader(br, partialMagic, partialVersion, codec, "partial"); err != nil {
		return nil, err
	}
	return readRelation(br, t.ring, codec, t.result.Schema(), "partial result")
}
