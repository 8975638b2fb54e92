"""Command-line entry point wiring the analysis pipeline together.

Subcommands: ingest, build-models, top-unigrams, distances, anonymity,
bound, eval, synth, framework.  Exit codes: 0 success, 1 runtime error,
2 usage error.  Every subcommand that writes files also writes a
manifest.json describing its inputs and outputs.  Options may come from a
line-oriented key=value file via --config; explicit flags win.  `--workers`
is accepted for compatibility and has no effect: distance matrices are
computed by one single-threaded vectorized kernel.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import os
import sys

from . import anonymity, corpus, evaluation, framework, lm


def _write_manifest(outdir: str, command: str, inputs: dict, params: dict, outputs: dict) -> None:
    manifest = {"command": command, "inputs": inputs, "params": params, "outputs": outputs}
    corpus._write_json(os.path.join(outdir, "manifest.json"), manifest)


def _file_sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _load_config(path: str) -> dict:
    values = {}
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                raise ValueError(f"{path}:{line_no}: {exc}") from None
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{line_no}: expected key=value")
            key, _, value = line.partition("=")
            values[key.strip().replace("-", "_")] = value.strip()
    return values


def _config_value(action: argparse.Action, key: str, raw: str):
    if action.nargs == 0:  # a flag such as --lenient
        if raw not in ("true", "false"):
            raise ValueError(f"config key {key!r} is a flag: expected true or false, got {raw!r}")
        return action.const if raw == "true" else action.default
    try:
        value = action.type(raw) if action.type else raw
    except ValueError:  # as argparse words it, with the key named
        raise ValueError(f"config key {key!r}: invalid {action.type.__name__} value {raw!r}") from None
    if action.choices is not None and value not in action.choices:
        choices = ", ".join(map(repr, action.choices))
        raise ValueError(f"config key {key!r}: invalid choice {raw!r} (choose from {choices})")
    return [value] if isinstance(action, argparse._AppendAction) else value


def _apply_config(args: argparse.Namespace, sub: argparse.ArgumentParser, sub_argv) -> None:
    if not getattr(args, "config", None):
        return
    values = _load_config(args.config)
    options = {a.dest: a for a in sub._actions if a.option_strings}
    # parse again into a namespace of Nones: argparse sets only the options given
    given, _ = sub.parse_known_args(sub_argv, argparse.Namespace(**dict.fromkeys(options)))
    for key, raw in values.items():
        if key in options and getattr(given, key) is None:  # explicit flag wins
            setattr(args, key, _config_value(options[key], key, raw))


def _normalization_config(args) -> tuple[corpus.NormalizationConfig, dict]:
    stopwords = (
        corpus.load_wordlist(args.stopwords) if args.stopwords else corpus.default_stopwords()
    )
    smilies = corpus.load_wordlist(args.smilies) if args.smilies else corpus.default_smilies()
    cfg = corpus.NormalizationConfig(stopwords=stopwords, smilies=smilies)
    hashes = {
        "stopwords_sha256": corpus.wordlist_hash(stopwords),
        "smilies_sha256": corpus.wordlist_hash(smilies),
    }
    return cfg, hashes


def _cmd_ingest(args) -> int:
    cfg, hashes = _normalization_config(args)
    with open(args.input, "rb") as fh:
        result = corpus.ingest_jsonl(fh, lenient=args.lenient)
    profiles = corpus.aggregate_profiles(result.comments, cfg)
    kept = corpus.filter_interesting(
        profiles,
        min_comments=args.min_comments,
        min_profiles=args.min_profiles,
        exclude_communities=args.exclude_community or (),
    )
    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, "profiles.jsonl")
    corpus.write_profiles(kept, out_path)
    _write_manifest(
        args.out,
        "ingest",
        inputs={"input": args.input, **hashes},
        params={
            "min_comments": args.min_comments,
            "min_profiles": args.min_profiles,
            "exclude_community": sorted(args.exclude_community or []),
            "lenient": args.lenient,
        },
        outputs={
            "profiles": out_path,
            "comments_read": len(result.comments),
            "lines_skipped": len(result.errors),
            "profiles_total": len(profiles),
            "profiles_kept": len(kept),
        },
    )
    print(f"kept {len(kept)} of {len(profiles)} profiles -> {out_path}")
    if result.errors:
        print(f"skipped {len(result.errors)} malformed line(s)", file=sys.stderr)
    return 0


def _cmd_build_models(args) -> int:
    streams = corpus.load_profiles(args.profiles)
    profiles, communities, _ = lm.build_models(streams)
    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, "models.jsonl")
    lm.save_models(out_path, profiles)
    _write_manifest(
        args.out,
        "build-models",
        inputs={"profiles": args.profiles},
        params={},
        outputs={
            "models": out_path,
            "profile_models": len(profiles),
            "community_models": len(communities),
        },
    )
    print(f"built {len(profiles)} profile and {len(communities)} community models -> {out_path}")
    return 0


def _cmd_top_unigrams(args) -> int:
    if args.k < 0:
        raise ValueError("k must be >= 0")
    if args.kind != "global" and args.key is None:
        raise ValueError(f"--kind {args.kind} needs --key")
    if args.kind == "profile" and args.author is None:
        raise ValueError("--kind profile needs --author")
    profiles, communities, global_model = lm.load_models(args.models)
    if args.kind == "global":
        model = global_model
    elif args.kind == "community":
        if args.key not in communities:
            raise ValueError(f"unknown community {args.key!r}")
        model = communities[args.key]
    else:
        key = (args.author, args.key)
        if key not in profiles:
            raise ValueError(f"unknown profile {key!r}")
        model = profiles[key]
    for token, count in lm.top_k(model, args.k):
        print(f"{token}\t{count}")
    return 0


def _community_models(profiles: dict, community: str) -> dict:
    selected = {author: model for (author, comm), model in profiles.items() if comm == community}
    if not selected:
        raise ValueError(f"no profiles found for community {community!r}")
    for author in sorted(selected):
        if selected[author].total <= 0:  # a profile made only of stopwords has no distribution
            raise ValueError(f"profile {author!r} in community {community!r} has no tokens")
    return selected


def _cmd_distances(args) -> int:
    profiles = lm._load_profile_models(args.models)
    selected = _community_models(profiles, args.community)
    matrix = anonymity.DistanceMatrix.build(selected)
    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, f"{args.community}.dmat")
    matrix.save(out_path)
    _write_manifest(
        args.out,
        "distances",
        inputs={"models": args.models},
        params={"community": args.community},
        outputs={"matrix": out_path, "profiles": len(matrix.keys)},
    )
    print(f"{len(matrix.keys)} profiles -> {out_path}")
    return 0


def _cmd_anonymity(args) -> int:
    if args.k is not None and args.k < 1:
        raise ValueError("k must be >= 1")
    if not 0.0 <= args.d <= 1.0:  # NaN included
        raise ValueError("d must be in [0, 1]")
    if args.matrix:
        if args.models or args.community:
            raise ValueError("give either --matrix or --models with --community, not both")
        matrix = anonymity.DistanceMatrix.load(args.matrix)
    else:
        if not args.models or not args.community:
            raise ValueError("need either --matrix or both --models and --community")
        profiles = lm._load_profile_models(args.models)
        matrix = anonymity.DistanceMatrix.build(_community_models(profiles, args.community))
    result = anonymity.convergent_subset(matrix, args.subject, args.d)
    report = {
        "subject": result.subject,
        "d": result.d,
        "k": result.k,
        "members": list(result.members),
    }
    if args.k is not None:
        report["kd_anonymous"] = result.k >= args.k
        report["requested_k"] = args.k
    print(json.dumps(report, sort_keys=True))
    return 0


def _cmd_bound(args) -> int:
    bound = anonymity.matching_bound(args.c, args.d, args.k)
    print(f"t = {bound.t:.6f}")
    return 0


def _cmd_synth(args) -> int:
    corp = evaluation.synth_corpus(
        n_users=args.users,
        topics=args.topics,
        comments_per_user=args.comments,
        rng_seed=args.seed,
        idiosyncrasy=args.idiosyncrasy,
    )
    os.makedirs(args.out, exist_ok=True)
    name_a, name_b = corp.communities
    paths = {}
    for name, comments in ((name_a, corp.comments_a), (name_b, corp.comments_b)):
        path = os.path.join(args.out, f"{name}.jsonl")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(evaluation.comments_to_jsonl(comments))
        paths[name] = path
    links_path = os.path.join(args.out, "links.csv")
    with open(links_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["source", "target", "same_user"])
        for link in corp.links:
            writer.writerow([link.source, link.target, int(link.same_user)])
    _write_manifest(
        args.out,
        "synth",
        inputs={},
        params={
            "users": args.users,
            "topics": args.topics,
            "comments": args.comments,
            "seed": args.seed,
            "idiosyncrasy": args.idiosyncrasy,
        },
        outputs={**paths, "links": links_path},
    )
    print(f"wrote {len(corp.comments_a) + len(corp.comments_b)} comments for {args.users} users")
    return 0


def _cmd_eval(args) -> int:
    try:  # each k once, ascending: the values the CSVs hold
        ks = sorted({int(part) for part in args.k.split(",") if part.strip()})
    except ValueError:
        raise ValueError(f"--k takes comma-separated integers, got {args.k!r}") from None
    if not ks:
        raise ValueError("need at least one k")
    if ks[0] < 1:
        raise ValueError("k must be >= 1")
    if args.community_a == args.community_b:
        raise ValueError(f"--community-a and --community-b must differ, both are {args.community_a!r}")
    streams = corpus.load_profiles(args.profiles)
    profile_models = lm.build_models(streams)[0]
    del streams  # the token lists are counted; free them before the matrices
    models_a = _community_models(profile_models, args.community_a)
    models_b = _community_models(profile_models, args.community_b)
    result = evaluation.run_experiment(models_a, models_b, ks=ks)
    metadata = {  # content, not path: the file is the same wherever the input lives
        "profiles_sha256": _file_sha256(args.profiles),
        "community_a": args.community_a,
        "community_b": args.community_b,
        "k": ks,
    }
    written = evaluation.write_experiment_csvs(result, args.out, metadata)
    _write_manifest(
        args.out,
        "eval",
        inputs={"profiles": args.profiles},
        params={"community_a": args.community_a, "community_b": args.community_b, "k": ks},
        outputs={os.path.basename(p): p for p in written},
    )
    for k in sorted(result.precisions):
        print(f"precision@{k} = {result.precisions[k]:.4f}")
    print(f"fraction below diagonal = {result.scatter.fraction_below:.4f}")
    return 0


def _cmd_framework(args) -> int:
    if args.framework_command == "impossibility":
        report = framework.impossibility_demo()
        for line in report["transcript"]:
            print(line)
        print(f"SD = {report['sd']}")
        return 0
    report = framework.run_scenario(args.scenario)
    print(json.dumps(report, sort_keys=True, indent=2))
    return 0


def build_parser() -> tuple[argparse.ArgumentParser, dict]:
    parser = argparse.ArgumentParser(
        prog="linkrisk",
        description="Linkability and identity-disclosure risk analytics for pseudonymous text profiles.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--workers", type=int, default=None, help="accepted; has no effect")
    common.add_argument("--config", default=None, help="key=value option file; flags win")

    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    subs = {}

    p = sub.add_parser("ingest", parents=[common], help="normalize a comment corpus into profile token streams")
    p.add_argument("--input", required=True, help="JSON Lines comment file")
    p.add_argument("--stopwords", default=None, help="stopword list file (default: packaged list)")
    p.add_argument("--smilies", default=None, help="smiley list file (default: packaged list)")
    p.add_argument("--min-comments", type=int, default=100)
    p.add_argument("--min-profiles", type=int, default=100)
    p.add_argument("--exclude-community", action="append", default=None, metavar="NAME")
    p.add_argument("--lenient", action="store_true", help="skip malformed lines instead of failing")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_ingest)
    subs["ingest"] = p

    p = sub.add_parser("build-models", parents=[common], help="aggregate token streams into unigram models")
    p.add_argument("--profiles", required=True, help="profiles.jsonl from ingest")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_build_models)
    subs["build-models"] = p

    p = sub.add_parser("top-unigrams", parents=[common], help="most frequent tokens of a model")
    p.add_argument("--models", required=True)
    p.add_argument("--key", default=None, help="community name (or profile community with --author)")
    p.add_argument("--author", default=None, help="author id for kind=profile")
    p.add_argument("--kind", choices=("community", "global", "profile"), default="community")
    p.add_argument("-k", type=int, default=20)
    p.set_defaults(func=_cmd_top_unigrams)
    subs["top-unigrams"] = p

    p = sub.add_parser("distances", parents=[common], help="pairwise distance matrix of one community")
    p.add_argument("--models", required=True)
    p.add_argument("--community", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_distances)
    subs["distances"] = p

    p = sub.add_parser("anonymity", parents=[common], help="neighborhood of a profile at radius d")
    p.add_argument("--models", default=None)
    p.add_argument("--community", default=None)
    p.add_argument("--matrix", default=None, help="previously saved .dmat file")
    p.add_argument("--subject", required=True)
    p.add_argument("--d", type=float, required=True)
    p.add_argument("--k", type=int, default=None, help="also report whether the subset reaches size k >= 1")
    p.set_defaults(func=_cmd_anonymity)
    subs["anonymity"] = p

    p = sub.add_parser("bound", parents=[common], help="adversary matching-likelihood bound")
    p.add_argument("--c", type=float, required=True, help="matching distance in (0, 1]")
    p.add_argument("--d", type=float, required=True, help="convergence radius in [0, 1]")
    p.add_argument("--k", type=int, required=True, help="anonymous subset size")
    p.set_defaults(func=_cmd_bound)
    subs["bound"] = p

    p = sub.add_parser("eval", parents=[common], help="cross-community linkability experiment")
    p.add_argument("--profiles", required=True)
    p.add_argument("--community-a", required=True)
    p.add_argument("--community-b", required=True)
    p.add_argument("--k", default="1,5,10,20", help="comma-separated k values")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_eval)
    subs["eval"] = p

    p = sub.add_parser("synth", parents=[common], help="generate a paired synthetic corpus")
    p.add_argument("--users", type=int, required=True)
    p.add_argument("--topics", type=int, required=True)
    p.add_argument("--comments", type=int, default=60, help="comments per user (upper bound)")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--idiosyncrasy", type=float, default=0.5)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth)
    subs["synth"] = p

    p = sub.add_parser("framework", parents=[common], help="attribute-level privacy scenarios")
    fsub = p.add_subparsers(dest="framework_command", metavar="ACTION")
    # --config and --workers go before the action: `_apply_config` reads them from this parser
    frun = fsub.add_parser("run", help="evaluate a scenario file")
    frun.add_argument("scenario", help="scenario JSON file")
    frun.set_defaults(func=_cmd_framework, framework_command="run")
    fimp = fsub.add_parser("impossibility", help="maximal posterior-shift construction")
    fimp.set_defaults(func=_cmd_framework, framework_command="impossibility")
    p.set_defaults(func=_cmd_framework, framework_command=None)
    subs["framework"] = p

    return parser, subs


@functools.lru_cache(maxsize=1)
def _shared_parser() -> tuple[argparse.ArgumentParser, dict]:
    # parsing leaves the parser unchanged, and argparse looks up
    # sys.stdout/sys.stderr only when it prints, so one parser serves every call
    return build_parser()


def dispatch(argv) -> int:
    parser, subs = _shared_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if not getattr(args, "command", None):
        parser.print_usage(sys.stderr)
        return 2
    if args.command == "framework" and not args.framework_command:
        subs["framework"].print_usage(sys.stderr)
        return 2
    try:
        _apply_config(args, subs[args.command], argv[argv.index(args.command) + 1:])
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
