"""Golden NDJSON and HTTP wire transcripts (record once, replay byte-exact)."""
