package serve

import (
	"errors"
	"fmt"
	"time"

	"repro/fivm"
	"repro/fivm/client"
	"repro/internal/view"
	"repro/internal/wal"
)

// RecoveryInfo summarizes one Recover pass.
type RecoveryInfo struct {
	// CheckpointSeq is the restored checkpoint's sequence number, 0 when
	// no valid checkpoint was found (cold start or first boot).
	CheckpointSeq uint64
	// CheckpointUpdates is the cumulative ingested-update count the
	// restored checkpoint covered.
	CheckpointUpdates uint64
	// ReplayedBatches and ReplayedUpdates count the logged batches
	// applied past the checkpoint.
	ReplayedBatches uint64
	ReplayedUpdates uint64
}

// Recover restores an engine from a WAL: the newest valid checkpoint
// (if any) through ReadSnapshot, then a replay of every logged batch
// past it through BuildDelta/ApplyBuilt. Call it on a freshly opened
// engine before New, and pass the same WAL in Config.WAL so the live
// pipeline's positions continue where recovery left off.
//
// Replay errors abort recovery: a log that names a relation the engine
// does not know, or carries tuples of another arity (schema drift
// against an old WAL directory), is a configuration error, not
// corruption — torn and corrupt records were already truncated away by
// wal.Open and never reach the engine.
func Recover(eng fivm.AnyEngine, w *wal.WAL) (RecoveryInfo, error) {
	var info RecoveryInfo
	if cp := w.Checkpoint(); cp != nil {
		r, err := cp.Open()
		if err != nil {
			return info, fmt.Errorf("serve: opening checkpoint: %w", err)
		}
		err = eng.ReadSnapshot(r)
		cerr := r.Close()
		if err != nil {
			return info, fmt.Errorf("serve: restoring checkpoint %s: %w", cp.Path, err)
		}
		if cerr != nil {
			return info, cerr
		}
		info.CheckpointSeq = cp.Seq
		info.CheckpointUpdates = cp.Positions.Applied
	}
	st, err := w.Replay(func(rel string, _ uint64, ups []view.Update) error {
		d, err := eng.BuildDelta(rel, ups)
		if err != nil {
			return err
		}
		return eng.ApplyBuilt(rel, d)
	})
	info.ReplayedBatches = st.Batches
	info.ReplayedUpdates = st.Updates
	return info, err
}

// walFail poisons the pipeline after a WAL append failure. The failing
// batch is never handed to the writer and its done channels never close:
// the engine state stays a clean prefix of the logged stream, so a
// restart recovers exactly the acknowledged updates.
func (s *Server) walFail(err error) {
	s.crashOnce.Do(func() {
		s.crashErr = fmt.Errorf("%w: %v", ErrCrashed, err)
		close(s.crashed)
	})
}

// CrashError reports the WAL failure that crashed the pipeline, nil
// while healthy. /v1/healthz surfaces it (and turns 503).
func (s *Server) CrashError() error {
	select {
	case <-s.crashed:
		return s.crashErr
	default:
		return nil
	}
}

// Checkpoint writes an incremental checkpoint: the engine snapshot plus
// the WAL positions it covers, taken on the writer goroutine between
// batches so snapshot and positions are mutually consistent. After it
// commits, segments it fully covers are pruned. The pipeline is stalled
// for the duration of the snapshot write.
func (s *Server) Checkpoint() error {
	w := s.cfg.WAL
	if w == nil {
		return errors.New("serve: no WAL configured")
	}
	var cperr error
	if err := s.Sync(func(m fivm.AnyEngine) {
		cperr = w.WriteCheckpoint(s.walPos.Clone(), m.WriteSnapshot)
	}); err != nil {
		return err
	}
	return cperr
}

// checkpointLoop writes a checkpoint every CheckpointInterval until the
// server closes or crashes.
func (s *Server) checkpointLoop() {
	defer s.cpWG.Done()
	t := time.NewTicker(s.cfg.CheckpointInterval)
	defer t.Stop()
	for {
		select {
		case <-s.cpStop:
			return
		case <-s.crashed:
			return
		case <-t.C:
			if err := s.Checkpoint(); err != nil {
				if errors.Is(err, ErrClosed) || errors.Is(err, ErrCrashed) {
					return
				}
				if s.cfg.TraceLog != nil {
					s.cfg.TraceLog.Printf("checkpoint err=%v", err)
				}
			}
		}
	}
}

// finalCheckpoint runs at the end of Close, after the writer exits and
// the engine is exclusively owned again. Skipped after a crash: the
// possibly partial in-memory state must not become the recovery
// baseline when the log already holds the clean prefix.
func (s *Server) finalCheckpoint() error {
	if s.cfg.WAL == nil || s.CrashError() != nil {
		return nil
	}
	return s.cfg.WAL.WriteCheckpoint(s.walPos.Clone(), s.eng.WriteSnapshot)
}

// WALStatus reports the durability subsystem's state; the zero value
// (Enabled false) when the server runs without a WAL.
func (s *Server) WALStatus() client.WALStatus {
	w := s.cfg.WAL
	if w == nil {
		return client.WALStatus{}
	}
	st := w.Stats()
	ws := client.WALStatus{
		Enabled:              true,
		AppendedBatches:      st.AppendedBatches,
		AppendedBytes:        st.AppendedBytes,
		Segments:             st.Segments,
		CheckpointSeq:        st.CheckpointSeq,
		CheckpointAgeSeconds: w.CheckpointAge().Seconds(),
		RecoveredUpdates:     s.walRecovered.Applied,
		RecoveredBatches:     s.walRecovered.Batches,
		AppliedUpdates:       s.walApplied.Load(),
		AppliedBatches:       s.walBatches.Load(),
		TruncatedBytes:       st.TruncatedBytes,
		RemovedSegments:      st.RemovedSegments,
	}
	if err := s.CrashError(); err != nil {
		ws.Crashed = true
		ws.CrashError = err.Error()
	}
	return ws
}
