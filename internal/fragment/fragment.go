// Package fragment implements the Fragment Manager of the execution
// subsystem (§4.2): it maintains a host's database of workflow fragments
// (the participant's knowhow) and answers knowhow queries issued during
// workflow construction — returning the fragments that can extend the
// querying supergraph at the boundary of its colored region.
//
// Stored fragments are immutable: Add stores a private clone, and every
// fragment the Manager returns is that stored value, shared with the
// store and with every other caller. Callers must not modify a returned
// fragment. Replies are encoded, or handed to core.Supergraph.AddFragment
// (which only reads them and keeps none of their slices) when an
// in-memory transport skips the codec.
package fragment

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"openwf/internal/model"
)

// Manager is a host's fragment store. It is safe for concurrent use.
type Manager struct {
	mu    sync.RWMutex
	frags map[string]*model.Fragment
	// consumers maps each label to the stored fragments with a task
	// consuming it, sorted by name, each fragment once — the layout of
	// core.Store's consumer index.
	consumers map[model.LabelID][]*model.Fragment
}

// NewManager returns an empty fragment manager.
func NewManager() *Manager {
	return &Manager{
		frags:     make(map[string]*model.Fragment),
		consumers: make(map[model.LabelID][]*model.Fragment),
	}
}

// Add stores a clone of a fragment (validated), so the caller may keep
// modifying its own copy. Adding a fragment with a name already present
// replaces it.
func (m *Manager) Add(f *model.Fragment) error {
	if err := f.Validate(); err != nil {
		return fmt.Errorf("adding fragment: %w", err)
	}
	c := f.Clone()
	m.mu.Lock()
	defer m.mu.Unlock()
	if old, ok := m.frags[c.Name]; ok {
		m.unindexLocked(old)
	}
	m.frags[c.Name] = c
	m.indexLocked(c)
	return nil
}

// Remove deletes a fragment by name; it reports whether it existed.
func (m *Manager) Remove(name string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.frags[name]
	if !ok {
		return false
	}
	m.unindexLocked(f)
	delete(m.frags, name)
	return true
}

func byName(a, b *model.Fragment) int { return strings.Compare(a.Name, b.Name) }

// indexLocked inserts f into the consumer list of every label it
// consumes, at its name position. A label several of f's tasks consume
// finds f already there and is skipped.
func (m *Manager) indexLocked(f *model.Fragment) {
	for _, t := range f.Tasks {
		for _, in := range t.Inputs {
			list := m.consumers[in]
			if i, found := slices.BinarySearchFunc(list, f, byName); !found {
				m.consumers[in] = slices.Insert(list, i, f)
			}
		}
	}
}

func (m *Manager) unindexLocked(f *model.Fragment) {
	for _, t := range f.Tasks {
		for _, in := range t.Inputs {
			list := m.consumers[in]
			i, found := slices.BinarySearchFunc(list, f, byName)
			if !found {
				continue // already removed for an earlier task
			}
			if list = slices.Delete(list, i, i+1); len(list) == 0 {
				delete(m.consumers, in)
			} else {
				m.consumers[in] = list
			}
		}
	}
}

// Consuming returns every stored fragment containing a task that
// consumes any of the given labels — the reply to a Fragment Message
// query — ordered by name, each once. The fragments are shared with the
// store and must not be modified; the slice is the caller's.
func (m *Manager) Consuming(labels []model.LabelID) []*model.Fragment {
	m.mu.RLock()
	defer m.mu.RUnlock()
	n := 0
	for _, l := range labels {
		n += len(m.consumers[l])
	}
	if n == 0 {
		return nil
	}
	out := make([]*model.Fragment, 0, n)
	for _, l := range labels {
		out = append(out, m.consumers[l]...)
	}
	slices.SortFunc(out, byName)
	// Names are unique in the store, so equal names are the same pointer.
	return slices.Compact(out)
}

// All returns every stored fragment, ordered by name. The fragments are
// shared with the store and must not be modified.
func (m *Manager) All() []*model.Fragment {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]*model.Fragment, 0, len(m.frags))
	for _, f := range m.frags {
		out = append(out, f)
	}
	slices.SortFunc(out, byName)
	return out
}

// ConsumedLabels returns every label consumed by any stored fragment,
// sorted — the knowhow half of the host's capability advertisement
// (internal/discovery): a frontier FragmentQuery for a label outside
// this set would come back empty.
func (m *Manager) ConsumedLabels() []model.LabelID {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]model.LabelID, 0, len(m.consumers))
	for l := range m.consumers {
		out = append(out, l)
	}
	slices.Sort(out)
	return out
}

// Len returns the number of stored fragments.
func (m *Manager) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.frags)
}
