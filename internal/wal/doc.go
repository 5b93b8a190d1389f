// Package wal is the serving pipeline's durability subsystem: an
// append-only, checksummed write-ahead log of coalesced update batches,
// periodic incremental checkpoints built from the engine snapshot
// codec, and crash recovery that restores the newest valid checkpoint
// and replays every batch logged past it.
//
// # Layout
//
// One WAL owns one directory:
//
//	<dir>/
//	  checkpoint-<seq>.ckpt      engine snapshot + covered positions
//	  shards/<rel>/<seq16>.seg   per-shard segment files, named by the
//	                             sequence number of their first batch
//
// Each ingestion shard (one per input relation) appends to its own
// segment log, so appends never serialize across shards; within a
// shard, batch sequence numbers are contiguous and strictly increasing
// across segment boundaries.
//
// # Record format
//
// A segment starts with a header and carries length-prefixed,
// CRC32C-checksummed batch records:
//
//	segment:  magic "FIVMWAL1" | uvarint len(rel) | rel
//	record:   u32le payloadLen | u32le crc32c(payload) | payload
//	payload:  uvarint seq | uvarint nUpdates |
//	          per update: uvarint len(key) | key (value.Tuple encoding) |
//	                      zigzag-varint multiplicity
//
// The CRC covers the payload only; the length field is implicitly
// validated by the CRC (a corrupt length either overruns the file,
// which is detected, or reframes the payload, which fails the CRC).
//
// # Fsync policies
//
// Records are written straight to the file descriptor — no userspace
// buffering — so every appended batch survives a process kill (SIGKILL)
// regardless of policy. The fsync policy governs what survives an OS
// crash or power loss:
//
//	PolicyAlways    fsync after every append, in the appender's
//	                goroutine: an acknowledged batch is on stable
//	                storage before the writer ever applies it.
//	PolicyInterval  a background goroutine fsyncs every dirty shard at
//	                a fixed interval; at most that interval of
//	                acknowledged batches is exposed to power loss.
//	PolicyOff       never fsync; durability against process crash only.
//
// # Checkpoints and truncation
//
// A checkpoint is one file, written atomically (temp file, fsync file,
// rename, fsync directory) and self-validating (whole-file CRC32C in a
// trailer), holding the engine snapshot plus the Positions it covers:
// the per-shard sequence number of the last batch applied before the
// snapshot was taken, and the cumulative applied update/batch counts.
// After a checkpoint commits, segments whose every record is covered by
// it are deleted, and all but the two newest checkpoints are pruned.
// The active (newest) segment of a shard is never deleted.
//
// # Recovery
//
// Open scans the directory: it picks the newest checkpoint that
// validates (corrupt ones are skipped, older ones tried), then walks
// every shard's segments validating record framing and sequence
// continuity. The log is truncated at the first invalid record — a torn
// final record from a crash mid-append loses only the batch that was
// never acknowledged — and any later segments are removed. Replay then
// feeds every surviving batch past the checkpoint's positions to the
// caller in per-shard sequence order; the cross-shard order differs from
// the live one, which leaves the result exact for the exact rings and
// integer-valued float data, equal up to float rounding otherwise.
//
// Torn is not foreign. A checkpoint that passes its CRC, or a segment
// whose 8-byte magic is whole, but of another format or version fails
// Open with an error naming the file, and Open truncates and removes
// nothing: each format has one version, the one this build writes, and
// skipping or deleting such a file would drop the updates it holds.
//
// The recovery invariant, proven by the serving layer's kill-mid-batch
// tests on integer-valued data: after restoring the checkpoint and
// replaying the log, the engine is bit-identical to a clean engine that
// applied exactly the acknowledged prefix of the update stream.
package wal
