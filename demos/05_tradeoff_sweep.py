"""The quality-latency tradeoff on the pinned synthetic task.

Some target tokens on this task need source context from well past
their own position, so small k forces guesses while large k waits.
Sweeping k maps out the tradeoff curve; seed 2024 is the published
setting used by the acceptance gate.
"""

from simulstream import (
    PolicySpec,
    SessionConfig,
    SyntheticTaskSpec,
    generate_corpus,
    policy_from_spec,
    run_session,
)


def main() -> None:
    spec = SyntheticTaskSpec(200, (10, 18), "random-monotone", noise_rate=0.45)
    corpus = generate_corpus(spec, 40, seed=2024)
    print(f"{len(corpus)} utterances, mean length "
          f"{sum(u.source_len for u in corpus) / len(corpus):.1f} segments\n")
    print(f"{'k':>3}  {'quality':>8}  {'AL (ms)':>8}  {'CA-AL (ms)':>10}")
    for k in (1, 3, 5, 10, 15):
        config = SessionConfig(policy=PolicySpec("waitk", k=k))
        policy = policy_from_spec(config.policy)
        results = [run_session(utt, config, policy) for utt in corpus]
        reports = [r.report() for r in results]
        quality = sum(r.quality for r in results) / len(results)
        al = sum(r.al_ms for r in reports) / len(reports)
        ca = sum(r.ca_al_ms for r in reports) / len(reports)
        print(f"{k:>3}  {quality:>8.1f}  {al:>8.0f}  {ca:>10.0f}")
    print("\nquality climbs with k while lagging grows; pick the knee you can afford.")


if __name__ == "__main__":
    main()
