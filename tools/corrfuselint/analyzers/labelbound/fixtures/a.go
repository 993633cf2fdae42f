// Package fix exercises labelbound: the bounded forms pass, raw request
// data, local enumerations and helpers with an unbounded call site are
// flagged, and the suppression path works.
package fix

import "labelboundfix/obs"

var endpoints = []string{"observe", "score"}

const fixed = "fixed"

var (
	vec  = &obs.CounterVec{}
	hist = &obs.HistogramVec{}
)

func constants() {
	vec.With("observe").Inc()
	vec.With(fixed).Inc()
	vec.With("pre" + fixed).Inc()
}

func enumeration() {
	for _, e := range endpoints {
		vec.With(e).Inc()
	}
}

// count is accepted: every call site passes a constant or an enumeration
// value, directly or through another such helper's parameter.
func count(endpoint string) { vec.With(endpoint).Inc() }

type server struct{}

func (s *server) route(name string) { count(name) }

func routes(s *server) {
	s.route("observe")
	for _, e := range endpoints {
		s.route(e)
	}
	stage := func(name string) { hist.With(name).Observe(1) }
	stage("capture")
	stage(fixed)
}

// record is rejected: one call site passes request data.
func record(label string) {
	vec.With(label).Inc() // want "label value label is not provably bounded"
}

func recordAll(userInput string) {
	record("observe")
	record(userInput)
}

// escapes is rejected: referenced as a value, its callers are out of sight.
func escapes(label string) {
	vec.With(label).Inc() // want "label value label is not provably bounded"
}

var handlers = []func(string){escapes}

// reassigned is rejected: the parameter no longer holds what callers passed.
func reassigned(label string, userInput string) {
	label = userInput
	vec.With(label).Inc() // want "label value label is not provably bounded"
}

func callReassigned(userInput string) { reassigned("observe", userInput) }

// Exported is rejected: callers outside the package are out of sight.
func Exported(label string) {
	vec.With(label).Inc() // want "label value label is not provably bounded"
}

func unbounded(userInput string) {
	vec.With(userInput).Inc() // want "label value userInput is not provably bounded"
}

func localRange() {
	local := []string{"a", "b"}
	for _, e := range local {
		vec.With(e).Inc() // want "label value e is not provably bounded"
	}
}

func histUnbounded(path string) {
	hist.With(path).Observe(1) // want "label value path is not provably bounded"
}

func suppressed(status string) {
	//lint:ignore labelbound HTTP status codes are a bounded set
	vec.With(status).Inc()
}
