package service

import (
	"io"

	"psaflow/internal/jsonstream"
)

// decodeJobSpec reads a submit body as a stream: each field is decoded
// as its tokens arrive, so a chunked upload is parsed incrementally and
// the handler holds at most one field's value beyond the spec itself —
// never the whole document. Unknown fields fail by name, matching the
// old DisallowUnknownFields behavior (a typoed time_out_ms silently
// running with defaults is worse than a 400). Reader errors — notably
// *http.MaxBytesError from the body cap — pass through for the caller
// to classify.
func decodeJobSpec(r io.Reader) (JobSpec, error) {
	var spec JobSpec
	obj := jsonstream.NewObject()
	obj.String("bench", &spec.Bench)
	obj.String("source", &spec.Source)
	obj.String("mode", &spec.Mode)
	obj.String("flow", &spec.Flow)
	obj.Bool("sharing", &spec.Sharing)
	obj.Float64("ai_threshold", &spec.AIThreshold)
	obj.Float64("transfer_bw", &spec.TransferBW)
	obj.Int64("timeout_ms", &spec.TimeoutMS)
	obj.String("faults", &spec.Faults)
	obj.Int("retry_max_attempts", &spec.RetryMaxAttempts)
	obj.Int("retry_budget", &spec.RetryBudget)
	obj.Int64("task_timeout_ms", &spec.TaskTimeoutMS)
	obj.String("tenant", &spec.Tenant)
	obj.Int("priority", &spec.Priority)
	err := obj.Decode(r)
	return spec, err
}
