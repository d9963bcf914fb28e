package main

import (
	"bytes"
	"net/http"
)

// recorder is a minimal reusable http.ResponseWriter for calling
// handlers in process.
type recorder struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (w *recorder) Header() http.Header {
	if w.header == nil {
		w.header = http.Header{}
	}
	return w.header
}

func (w *recorder) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}

func (w *recorder) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.body.Write(b)
}

// reset clears the recorder for the next request.
func (w *recorder) reset() {
	clear(w.header)
	w.status = 0
	w.body.Reset()
}
