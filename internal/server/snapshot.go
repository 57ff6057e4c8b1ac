package server

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"

	"ftnet/internal/fterr"

	"ftnet"
)

// diskSnapshot is the on-disk session state: the committed fault set and
// embedding generation, plus enough topology identity to refuse a
// restore onto a different host. The embedding itself is not stored —
// the pipeline is deterministic, so replaying the fault set reproduces
// it bit-identically; EmbeddingChecksum pins that claim at restore time.
type diskSnapshot struct {
	Version    int    `json:"version"`
	TopologyID string `json:"topology"`
	D          int    `json:"d"`
	Side       int    `json:"side"` // realized guest side, not MinSide
	HostNodes  int    `json:"host_nodes"`
	Generation int64  `json:"generation"`
	Faults     []int  `json:"faults"`
	// Edges is the committed edge-fault set: canonical (u < v) pairs,
	// sorted lexicographically. Absent in pre-edge-fault snapshots,
	// which restore with no edge faults.
	Edges [][2]int `json:"edges,omitempty"`
	// SessionFaults is the session's full fault set at snapshot time,
	// including mutations recorded after the last successful commit
	// (whose evaluation failed or had not run yet) — recorded reality
	// never rolls back, so it must survive a restart too. Restore
	// replays Faults (which must re-verify against EmbeddingChecksum)
	// and then the delta to SessionFaults, left pending. No omitempty:
	// null means "same as Faults", while an explicit empty list means
	// every committed fault was cleared after the commit — omitempty
	// would collapse the two.
	SessionFaults []int `json:"session_faults"`
	// SessionEdges is the edge analogue of SessionFaults, with the same
	// null-versus-empty distinction against Edges.
	SessionEdges [][2]int `json:"session_edges"`
	// EmbeddingChecksum is MapChecksum of the committed map, hex-encoded.
	EmbeddingChecksum string `json:"embedding_checksum"`
}

const snapshotVersion = 1

func (d *diskSnapshot) checksum() uint64 {
	v, err := strconv.ParseUint(d.EmbeddingChecksum, 16, 64)
	if err != nil {
		return 0
	}
	return v
}

// check refuses to restore state onto an incompatible host.
func (d *diskSnapshot) check(cfg TopologyConfig, host *ftnet.RandomFaultTorus) error {
	if d.Version != snapshotVersion {
		return fterr.New(fterr.Corrupt, "server.snapshot", "topology %s: snapshot version %d, want %d", cfg.ID, d.Version, snapshotVersion)
	}
	if d.TopologyID != cfg.ID {
		return fterr.New(fterr.Corrupt, "server.snapshot", "topology %s: snapshot belongs to topology %q", cfg.ID, d.TopologyID)
	}
	if d.D != host.Dims() || d.Side != host.Side() || d.HostNodes != host.HostNodes() {
		return fterr.New(fterr.Corrupt, "server.snapshot", "topology %s: snapshot host (d=%d side=%d nodes=%d) does not match configured host (d=%d side=%d nodes=%d)",
			cfg.ID, d.D, d.Side, d.HostNodes, host.Dims(), host.Side(), host.HostNodes())
	}
	return nil
}

// snapshotPath is <dir>/<id>.json; topology IDs are validated to be
// path-safe (see TopologyConfig.Validate).
func snapshotPath(dir, id string) string {
	return filepath.Join(dir, id+".json")
}

// writeSnapshot persists a committed Snapshot atomically and durably
// (temp file, fsync, rename, fsync of the directory), so neither a crash
// nor a power loss mid-write corrupts the previous snapshot.
// session and sessionEdges are the full session fault sets (see
// diskSnapshot.SessionFaults); each is recorded only when it differs
// from its committed set.
func writeSnapshot(dir string, t *topology, snap *Snapshot, session []int, sessionEdges [][2]int) (string, error) {
	d := diskSnapshot{
		Version:           snapshotVersion,
		TopologyID:        t.cfg.ID,
		D:                 t.host.Dims(),
		Side:              t.host.Side(),
		HostNodes:         t.host.HostNodes(),
		Generation:        snap.Generation,
		Faults:            snap.FaultNodes,
		Edges:             snap.FaultEdges,
		EmbeddingChecksum: fmt.Sprintf("%016x", snap.Checksum),
	}
	if !slices.Equal(session, snap.FaultNodes) {
		d.SessionFaults = session
		if d.SessionFaults == nil {
			d.SessionFaults = []int{} // nil means "same as Faults"
		}
	}
	if !slices.Equal(sessionEdges, snap.FaultEdges) {
		d.SessionEdges = sessionEdges
		if d.SessionEdges == nil {
			d.SessionEdges = [][2]int{} // nil means "same as Edges"
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	data, err := json.Marshal(&d)
	if err != nil {
		return "", err
	}
	path := snapshotPath(dir, t.cfg.ID)
	tmp, err := os.CreateTemp(dir, t.cfg.ID+".tmp-*")
	if err != nil {
		return "", err
	}
	// Sync before the rename: otherwise a power loss can leave the new
	// name pointing at an empty or torn file, which the next start
	// refuses to serve as corrupt.
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return "", err
	}
	// Sync the directory too, so the rename itself is durable.
	df, err := os.Open(dir)
	if err != nil {
		return "", err
	}
	err = df.Sync()
	if cerr := df.Close(); err == nil {
		err = cerr
	}
	return path, err
}

// loadSnapshot reads a topology's snapshot file; a missing file is not
// an error (nil, nil) — the topology then starts fresh.
func loadSnapshot(dir, id string) (*diskSnapshot, error) {
	data, err := os.ReadFile(snapshotPath(dir, id))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var d diskSnapshot
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fterr.Wrapf(fterr.Corrupt, "server.snapshot", err, "decode %s", snapshotPath(dir, id))
	}
	return &d, nil
}
