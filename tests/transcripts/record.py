"""Re-record the golden transcripts: ``python -m tests.transcripts.record``."""

from tests.transcripts.scenario import (
    GOLDEN_DIR,
    SERVERS,
    TRANSPORTS,
    dump,
    golden_path,
    run_scenario,
)


def main() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for kind in SERVERS:
        for transport in TRANSPORTS:
            path = golden_path(kind, transport)
            path.write_text(dump(run_scenario(kind, transport)), encoding="utf-8")
            print(f"wrote {path}")


if __name__ == "__main__":
    main()
