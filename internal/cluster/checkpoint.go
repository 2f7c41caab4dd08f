package cluster

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// WriteFileAtomic writes data to path via a temp file in the same
// directory plus a rename, so a crash mid-write can never leave a torn
// checkpoint behind: readers see either the old file or the new one.
func WriteFileAtomic(path string, data []byte, perm os.FileMode) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".ckpt-*")
	if err != nil {
		return fmt.Errorf("cluster: checkpoint temp file: %w", err)
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("cluster: writing checkpoint: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("cluster: syncing checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("cluster: closing checkpoint: %w", err)
	}
	if err := os.Chmod(tmpName, perm); err != nil {
		return fmt.Errorf("cluster: checkpoint permissions: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		return fmt.Errorf("cluster: publishing checkpoint: %w", err)
	}
	return nil
}

// RestoreNodeFromCheckpoint loads the market-state checkpoint at path
// into the node. A missing file is a clean first boot, reported as
// (false, nil); a present-but-invalid file is an error, because
// silently discarding a learned price table defeats the point of
// checkpointing.
func RestoreNodeFromCheckpoint(n *Node, path string) (bool, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("cluster: reading checkpoint %s: %w", path, err)
	}
	if err := n.RestoreMarketState(data); err != nil {
		return false, fmt.Errorf("cluster: checkpoint %s: %w", path, err)
	}
	return true, nil
}

// Checkpointer periodically persists a node's market state so a
// restarted node resumes its learned price table instead of relearning
// demand from scratch. Writes are atomic (temp + rename).
type Checkpointer struct {
	node  *Node
	path  string
	every time.Duration
	logf  func(format string, args ...any)

	stopCh   chan struct{}
	done     chan struct{}
	stopOnce sync.Once
}

// StartCheckpointer begins checkpointing the node's market state to
// path every interval. Stop writes one final checkpoint.
func StartCheckpointer(n *Node, path string, every time.Duration) (*Checkpointer, error) {
	if path == "" {
		return nil, errors.New("cluster: empty checkpoint path")
	}
	if every <= 0 {
		return nil, fmt.Errorf("cluster: checkpoint interval %v not positive", every)
	}
	c := &Checkpointer{
		node:   n,
		path:   path,
		every:  every,
		logf:   n.cfg.Logf,
		stopCh: make(chan struct{}),
		done:   make(chan struct{}),
	}
	go c.loop(n.cfg.clock.newTicker(every))
	return c, nil
}

func (c *Checkpointer) loop(t ticker) {
	defer close(c.done)
	defer t.Stop()
	for {
		select {
		case <-t.C():
			if err := c.Checkpoint(); err != nil {
				// Keep serving; a missed checkpoint only widens the
				// recovery gap, visible as checkpoint_age_ms in stats.
				c.logf("cluster: checkpoint: %v", err)
			}
		case <-c.stopCh:
			return
		}
	}
}

// Checkpoint captures and writes the node's market state once.
func (c *Checkpointer) Checkpoint() error {
	data, err := c.node.MarketState()
	if err != nil {
		return err
	}
	if err := WriteFileAtomic(c.path, data, 0o644); err != nil {
		return err
	}
	c.node.noteCheckpoint()
	return nil
}

// Stop halts the periodic loop and writes a final checkpoint, capturing
// whatever the node learned up to (and during) its drain. Safe to call
// after the node is closed: market state stays readable.
func (c *Checkpointer) Stop() error {
	c.stopOnce.Do(func() { close(c.stopCh) })
	<-c.done
	return c.Checkpoint()
}
