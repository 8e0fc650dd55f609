package experiments

import (
	"fmt"
	"io"
)

// RunAll executes every experiment in ID order.
func RunAll(o Options, w io.Writer) error {
	for _, id := range IDs() {
		tbl, err := Run(id, o)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		tbl.Fprint(w)
	}
	return nil
}
