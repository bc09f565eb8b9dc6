package runner

import (
	"fmt"
	"sort"
	"sync"

	"hyscale/internal/platform"
)

// Finalizer runs after a world's clock stops, letting a hook harvest
// measurements into Result.Extra (e.g. the experiments' health probe). A nil
// Finalizer is fine.
type Finalizer func(res *Result)

// Hook mutates a freshly-built world before the clock starts — the escape
// hatch for setups a declarative RunSpec field cannot express (heterogeneous
// node swaps, custom probes). Hooks are referenced from specs by registered
// name so the spec itself stays serializable.
type Hook func(w *platform.World, spec RunSpec) (Finalizer, error)

var (
	hooksMu sync.RWMutex
	hooks   = map[string]Hook{}
)

// RegisterHook makes a hook addressable from RunSpec.Hooks. Registering a
// duplicate name panics: hook names are a global namespace wired at init
// time, and a silent overwrite would make runs depend on package init order.
func RegisterHook(name string, h Hook) {
	if name == "" || h == nil {
		panic("runner: RegisterHook requires a name and a hook")
	}
	hooksMu.Lock()
	defer hooksMu.Unlock()
	if _, dup := hooks[name]; dup {
		panic(fmt.Sprintf("runner: hook %q registered twice", name))
	}
	hooks[name] = h
}

// lookupHook resolves a registered hook.
func lookupHook(name string) (Hook, error) {
	hooksMu.RLock()
	defer hooksMu.RUnlock()
	h, ok := hooks[name]
	if !ok {
		return nil, fmt.Errorf("runner: no hook registered as %q (have %v)", name, hookNamesLocked())
	}
	return h, nil
}

func hookNamesLocked() []string {
	names := make([]string, 0, len(hooks))
	for n := range hooks {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
