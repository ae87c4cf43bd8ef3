"""One utterance through the dual-clock streaming simulator.

The ideal clock only waits for source segments; the computation-aware
clock also charges a compute model per decision and per synthesized
unit. Batching units before each synthesis call (emission rate l)
trades fewer calls against later, chunkier audio.
"""

from simulstream import (
    ComputeModel,
    PolicySpec,
    SessionConfig,
    SyntheticTaskSpec,
    WaitKPolicy,
    discontinuity_report,
    generate_corpus,
    run_session,
)
from simulstream.session import EVENT_FIELDS


def main() -> None:
    utt = generate_corpus(SyntheticTaskSpec(50, (6, 6), "identity"), 1, seed=2)[0]
    compute = ComputeModel(per_decision_ms=8.0, per_unit_ms=2.0)
    for l in (1, 5):
        config = SessionConfig(
            policy=PolicySpec("waitk", k=2),
            emission_rate_l=l,
            units_per_token=4,
            compute=compute,
        )
        res = run_session(utt, config, WaitKPolicy(2))
        rep = res.report()
        total_gap, n_gaps, biggest = discontinuity_report(res.events)
        print(f"emission rate l={l}:")
        print(f"  ideal delays (ms): {[d // 1000 for d in res.ideal_delays_us]}")
        print(f"  CA delays (ms):    {[d // 1000 for d in res.ca_delays_us]}")
        print(f"  AL {rep.al_ms:.0f} ms, CA-AL {rep.ca_al_ms:.0f} ms")
        print(f"  playback gaps: {n_gaps} totalling {total_gap:.0f} ms (max {biggest:.0f} ms)")

    res = run_session(
        utt,
        SessionConfig(policy=PolicySpec("waitk", k=2), units_per_token=4, compute=compute),
        WaitKPolicy(2),
    )
    print("\nfirst ten events of the l=1 run:")
    for t_us, wall_us, kind, *fields in res.events[:10]:
        by_name = dict(zip(EVENT_FIELDS[kind], fields))
        print(f"  t={t_us / 1000:7.1f} ms  wall={wall_us / 1000:7.1f} ms  {kind}  {by_name}")


if __name__ == "__main__":
    main()
