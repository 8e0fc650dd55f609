// Package fixtures exercises globalrand: math/rand and ambient calls are hits.
package fixtures

import . "time" // Now() below is time.Now
import (
	"math/rand"
	"os"
	"time"
)

func seedFromAmbientState() int64 {
	if os.Getenv("SEED") != "" {
		return time.Now().UnixNano()
	}
	return rand.Int63()
}

func dotImportedClock() int64 {
	// Hit: time.Now reached through a dot import.
	return Now().UnixNano()
}
