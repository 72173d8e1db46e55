"""Benchmark-owned server process for the two wire workloads.

Started by the harness as ``python server.py --artifact model.npz ...``: it
rebuilds the schema, ``load_model``s the artifact the harness saved, folds
the kernels, optionally enables the cascade from a calibration file, and
serves HTTP on an ephemeral port. Running it as its own process keeps the
load generator's threads off the server's GIL.

Control is line-oriented on stdin, replies are JSON lines on stdout:

``trace_on``            wrap the layer boundaries (see ``tracing.py``)
``trace_dump <path>``   write the spans recorded so far
``stats``               service / compiled-kernel / registry / rusage snapshot
``quit`` (or EOF)       drain the server, close the service, exit 0
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

from fixture import MODEL_NAME, STUB_NAME, build_schema
from stubs import ConstantModel
from tracing import Tracer, write_spans

from repro.core.estimator import NeuroCard
from repro.core.inference import compiled_model
from repro.core.persistence import load_model
from repro.serving import (
    CascadeConfig,
    EstimationService,
    HttpConfig,
    HttpServerThread,
    ServingConfig,
)
from repro.serving import http as http_module


def reply(**doc) -> None:
    sys.stdout.write(json.dumps(doc) + "\n")
    sys.stdout.flush()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--artifact", required=True)
    parser.add_argument("--scale", required=True)
    parser.add_argument("--calibration", default=None)
    args = parser.parse_args()

    schema = build_schema(args.scale)
    start = time.perf_counter()
    model = load_model(args.artifact, schema)
    load_s = time.perf_counter() - start
    start = time.perf_counter()
    model.precompile()
    compile_s = time.perf_counter() - start

    cascade = (
        CascadeConfig(calibration_path=args.calibration)
        if args.calibration is not None
        else None
    )
    # cache_size=0 with a unique seed per request: every request does real
    # work. Plan caches stay on.
    service = EstimationService(config=ServingConfig(cache_size=0, cascade=cascade))
    service.register(MODEL_NAME, model)
    # Constant-time model behind the same server: a round trip to it is the
    # wire + admission + scheduler cost with no engine in it.
    service.register(STUB_NAME, ConstantModel())
    if cascade is not None:
        service.enable_cascade(MODEL_NAME)
    service.scheduler(MODEL_NAME)
    server = HttpServerThread(service, HttpConfig(port=0)).start()
    tracer = None
    reply(
        event="ready",
        port=server.port,
        load_s=load_s,
        compile_s=compile_s,
    )
    try:
        for line in sys.stdin:
            command, _, argument = line.strip().partition(" ")
            if command == "trace_on":
                tracer = Tracer()
                tracer.wrap_model_class(NeuroCard)
                tracer.wrap_service(service, MODEL_NAME)
                tracer.wrap_http(http_module, server.server)
                reply(event="trace_on")
            elif command == "trace_dump":
                spans = tracer.documents() if tracer is not None else []
                write_spans(Path(argument), spans)
                reply(event="trace_dump", spans=len(spans))
            elif command == "stats":
                reply(
                    event="stats",
                    service=service.stats(),
                    compiled=compiled_model(model.inference).stats(),
                    version=service.registry.version(MODEL_NAME),
                    maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                )
            elif command == "quit":
                break
    finally:
        server.stop(close_service=True)


if __name__ == "__main__":
    main()
