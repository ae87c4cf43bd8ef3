"""Networked evaluation over the JSON-lines wire protocol.

The server owns the corpus; the client makes the read/write decisions.
The client runs its session through the timing engine once and sends
the reads and writes of its event log; the server takes each one as a
step of the same engine as it arrives, so both sides must report the
same metrics. Any per-field gap means the harness is broken.
"""

from simulstream import (
    ComputeModel,
    PolicySpec,
    SessionConfig,
    SyntheticTaskSpec,
    connect,
    generate_corpus,
    serve,
)


def main() -> None:
    corpus = generate_corpus(
        SyntheticTaskSpec(90, (5, 11), "random-monotone", noise_rate=0.3), 5, seed=55
    )
    config = SessionConfig(
        policy=PolicySpec("waitk", k=3),
        emission_rate_l=3,
        compute=ComputeModel(per_decision_ms=2.0, per_unit_ms=0.5),
    )
    server = serve("127.0.0.1", 0, corpus, config, fast_forward=True)
    try:
        host, port = server.address
        print(f"server on {host}:{port}, draining {len(corpus)} sessions...\n")
        exchanges = connect(host, port)
    finally:
        server.shutdown()
    for ex in exchanges:
        m = ex.server_metrics
        print(
            f"{ex.utterance_id}: AL {m['al_ms']:8.1f} ms  CA-AL {m['ca_al_ms']:8.1f} ms  "
            f"quality {m['quality']:5.1f}  field gap {ex.max_field_gap():.6f}"
        )
    print(f"\nserver-side failures: {server.failures or 'none'}")


if __name__ == "__main__":
    main()
