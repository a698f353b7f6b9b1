package core

import (
	"fmt"
	"sort"
	"sync"
)

// Backend is one secure-memory scheme family selectable by name. Backends
// self-register (Register) and every layer above the engine — sim config
// resolution, runspec validation, experiment sweeps, CLI help — derives its
// scheme knowledge from the registry instead of hard-coding name lists, so
// adding a scheme means adding one backend and nothing else.
type Backend interface {
	// Name is the unique scheme identifier (the -scheme flag value).
	Name() string
	// Description is a one-line summary used for registry-derived docs and
	// CLI help (README scheme table, itespsim -list-schemes).
	Description() string
	// Build constructs the backend's Scheme for the given core count,
	// following the Section IV methodology: the total security/reliability
	// cache budget is 16 KB per core, split per scheme.
	Build(cores int) (Scheme, error)
}

// registry holds every registered backend. Registration happens in package
// init functions; the lock exists so tests can register probe backends.
var registry = struct {
	sync.RWMutex
	byName map[string]registryEntry
	order  []string
}{byName: map[string]registryEntry{}}

type registryEntry struct {
	backend Backend
	tags    map[string]bool
}

// Register adds a backend under its name, with optional tags grouping it
// into experiment scheme lists (e.g. "fig8", "fig11"). It panics on an
// empty or duplicate name — registration is an init-time programming act,
// not a runtime input.
func Register(b Backend, tags ...string) {
	name := b.Name()
	if name == "" {
		panic("core: backend with empty name")
	}
	registry.Lock()
	defer registry.Unlock()
	if _, dup := registry.byName[name]; dup {
		panic(fmt.Sprintf("core: backend %q registered twice", name))
	}
	e := registryEntry{backend: b, tags: map[string]bool{}}
	for _, t := range tags {
		e.tags[t] = true
	}
	registry.byName[name] = e
	registry.order = append(registry.order, name)
}

// Lookup returns the backend registered under name.
func Lookup(name string) (Backend, bool) {
	registry.RLock()
	defer registry.RUnlock()
	e, ok := registry.byName[name]
	return e.backend, ok
}

// Names lists every registered scheme in registration order (the paper's
// Figure 8 order, then the Morphable family, then post-paper families).
func Names() []string {
	registry.RLock()
	defer registry.RUnlock()
	return append([]string(nil), registry.order...)
}

// NamesTagged lists the registered schemes carrying the given tag, in
// registration order. Experiment harnesses use tags to derive their scheme
// lists ("fig8", "fig11") from the registry.
func NamesTagged(tag string) []string {
	registry.RLock()
	defer registry.RUnlock()
	var names []string
	for _, n := range registry.order {
		if registry.byName[n].tags[tag] {
			names = append(names, n)
		}
	}
	return names
}

// Descriptions returns a name -> one-line description map over the whole
// registry (for doc generation).
func Descriptions() map[string]string {
	registry.RLock()
	defer registry.RUnlock()
	out := make(map[string]string, len(registry.order))
	for n, e := range registry.byName {
		out[n] = e.backend.Description()
	}
	return out
}

// SchemeByName returns the named scheme configured for the given core
// count. The name set is the backend registry's (SchemeNames); schemes and
// their one-line descriptions are listed by `itespsim -list-schemes`.
func SchemeByName(name string, cores int) (Scheme, error) {
	b, ok := Lookup(name)
	if !ok {
		return Scheme{}, fmt.Errorf("core: unknown scheme %q", name)
	}
	return b.Build(cores)
}

// SchemeNames lists all selectable schemes: Figure 8 order, then the
// Morphable-counter configurations of Figure 11, then the post-paper
// families (SERVAS, TME-Box).
func SchemeNames() []string { return Names() }

// backendFunc is the function-backed Backend used by the built-in
// families. Its traffic model follows from the Scheme it builds (see
// trafficFor).
type backendFunc struct {
	name  string
	desc  string
	build func(cores int) (Scheme, error)
}

func (b backendFunc) Name() string        { return b.name }
func (b backendFunc) Description() string { return b.desc }
func (b backendFunc) Build(cores int) (Scheme, error) {
	return b.build(cores)
}

// sortedTags is a test helper surface: the tags of one backend, sorted.
func sortedTags(name string) []string {
	registry.RLock()
	defer registry.RUnlock()
	e, ok := registry.byName[name]
	if !ok {
		return nil
	}
	var tags []string
	for t := range e.tags {
		tags = append(tags, t)
	}
	sort.Strings(tags)
	return tags
}
