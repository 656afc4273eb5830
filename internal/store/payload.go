package store

import (
	"context"
	"encoding/json"
	"fmt"

	"repro/internal/sim"
)

// Payload is the canonical stored form of one mission's verdict — exactly the
// deterministic parts of a mission result. Name, wall time and cache markers
// are identity that the consumer re-attaches on reuse; they never enter the
// store, so the bytes under a fingerprint are the same no matter which
// process, job or subsystem computed them. Both sweep jobs and deterministic
// certification cells store through this type, which is what lets them share
// entries.
type Payload struct {
	Metrics  sim.Metrics  `json:"metrics"`
	Switches []sim.Switch `json:"switches,omitempty"`
}

// encode renders the payload as canonical JSON bytes for storage.
func (p Payload) encode() ([]byte, error) {
	raw, err := json.Marshal(p)
	if err != nil {
		return nil, fmt.Errorf("store: encode payload: %w", err)
	}
	return raw, nil
}

// decodePayload parses stored bytes back into a Payload. An error means the
// entry is unusable and the caller should recompute; with checksummed tiers
// this indicates an encoding-era bug, not bit rot.
func decodePayload(raw []byte) (Payload, error) {
	var p Payload
	if err := json.Unmarshal(raw, &p); err != nil {
		return Payload{}, fmt.Errorf("store: decode payload: %w", err)
	}
	return p, nil
}

// Lookup is the cell protocol every consumer of mission verdicts follows. It
// resolves key through Acquire to one of:
//
//   - (p, true, nil): the stored verdict, decoded — a tier hit or another
//     caller's fill.
//   - (_, false, fill): a miss this caller leads. The caller simulates the
//     cell and ends the fill with Finish.
//   - (_, false, nil): the context was cancelled while waiting, or the
//     stored entry does not decode. The caller simulates without caching
//     duties — a corrupt entry must not poison its consumer.
func (t *Tiered) Lookup(ctx context.Context, key string) (Payload, bool, *Fill) {
	val, fill := t.Acquire(ctx, key)
	if val == nil {
		return Payload{}, false, fill
	}
	p, err := decodePayload(val)
	if err != nil {
		return Payload{}, false, nil
	}
	return p, true, nil
}

// Finish ends a Lookup fill with the leader's outcome. A nil err stores p
// through the local tiers and hands it to every waiter; a failed or
// cancelled simulation aborts instead, so waiters re-check the tiers and
// elect a new leader rather than inheriting the failure. Finish on a nil
// fill is a no-op, so callers without caching duties need no branch.
func (f *Fill) Finish(ctx context.Context, p Payload, err error) {
	if f == nil {
		return
	}
	var raw []byte
	if err == nil {
		raw, err = p.encode()
	}
	if err != nil {
		f.Abort()
		return
	}
	f.Complete(ctx, raw)
}
