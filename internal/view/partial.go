package view

import (
	"bufio"
	"fmt"
	"io"

	"repro/internal/relation"
	"repro/internal/ring"
	"repro/internal/value"
)

// Partial format — a shard's maintained result relation, serialized for
// cross-shard ring-merging (the wire body of GET /v1/partial):
//
//	magic "FIVMPART" | version u8 | codec tag | attr count uvarint |
//	attrs... | tuple count uvarint |
//	per tuple: encoded key | payload (ring codec)
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

// WritePartial serializes the tree's current result relation to w using
// codec for payloads. The tree is unchanged.
func (t *Tree[V]) WritePartial(w io.Writer, codec ring.Codec[V]) error {
	bw := bufio.NewWriter(w)
	if _, err := io.WriteString(bw, partialMagic); err != nil {
		return err
	}
	if err := bw.WriteByte(partialVersion); err != nil {
		return err
	}
	if err := writeString(bw, codecTag(codec)); err != nil {
		return err
	}
	attrs := t.result.Schema().Attrs()
	if err := writeUvarint(bw, uint64(len(attrs))); err != nil {
		return err
	}
	for _, a := range attrs {
		if err := writeString(bw, a); err != nil {
			return err
		}
	}
	if err := writeUvarint(bw, uint64(t.result.Len())); err != nil {
		return err
	}
	var encErr error
	t.result.Each(func(tp value.Tuple, p V) {
		if encErr != nil {
			return
		}
		if encErr = writeString(bw, tp.Encode()); encErr != nil {
			return
		}
		encErr = codec.Encode(bw, p)
	})
	if encErr != nil {
		return encErr
	}
	return bw.Flush()
}

// ReadPartial decodes one partial result relation from r. The partial's
// schema must equal the tree's result schema (same query shape on every
// shard); the returned relation is freshly allocated and safe to merge
// or mutate.
func (t *Tree[V]) ReadPartial(r io.Reader, codec ring.Codec[V]) (*relation.Map[V], error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(partialMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("view: reading partial header: %w", err)
	}
	if string(magic) != partialMagic {
		return nil, fmt.Errorf("view: not a F-IVM partial (magic %q)", magic)
	}
	ver, err := br.ReadByte()
	if err != nil {
		return nil, err
	}
	if ver != partialVersion {
		return nil, fmt.Errorf("view: unsupported partial version %d", ver)
	}
	tag, err := readString(br)
	if err != nil {
		return nil, err
	}
	if want := codecTag(codec); tag != want {
		return nil, fmt.Errorf("view: partial written with codec %s, merger uses %s", tag, want)
	}
	nAttrs, err := readUvarint(br)
	if err != nil {
		return nil, err
	}
	attrs := make([]string, nAttrs)
	for i := range attrs {
		if attrs[i], err = readString(br); err != nil {
			return nil, err
		}
	}
	schema := value.NewSchema(attrs...)
	if !schema.Equal(t.result.Schema()) {
		return nil, fmt.Errorf("view: partial result schema %v, merger has %v", attrs, t.result.Schema().Attrs())
	}
	nTuples, err := readUvarint(br)
	if err != nil {
		return nil, err
	}
	m := relation.New[V](schema)
	for i := uint64(0); i < nTuples; i++ {
		key, err := readString(br)
		if err != nil {
			return nil, err
		}
		tp, err := value.DecodeTuple(key)
		if err != nil {
			return nil, fmt.Errorf("view: partial tuple: %w", err)
		}
		if len(tp) != schema.Len() {
			return nil, fmt.Errorf("view: partial tuple has %d attributes, schema has %d (corrupt partial?)", len(tp), schema.Len())
		}
		p, err := codec.Decode(br)
		if err != nil {
			return nil, err
		}
		if !t.ring.IsZero(p) { // never stored; a crafted stream must not smuggle one in
			m.Set(tp, p)
		}
	}
	return m, nil
}
