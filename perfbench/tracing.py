"""Span recording around the program's public functions.

The benchmark never edits the program: in a traced run it replaces a
layer's public function (or method) with a thin wrapper that records a
span -- name, start, end, thread, parent span and a few attributes -- and
then calls the original. Spans stay in memory until :meth:`Recorder.dump`.

``perf_counter`` is ``CLOCK_MONOTONIC`` on Linux, so spans recorded in the
server process and client timings recorded in the load generator share one
time base.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional


class Recorder:
    """In-memory span store; one per process."""

    def __init__(self) -> None:
        self.enabled = True
        self.spans: List[Dict[str, Any]] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        name: str,
        fn: Callable,
        attrs: Optional[Callable[[tuple, dict, Any], Dict[str, Any]]] = None,
    ) -> Callable:
        """``fn`` recording one ``name`` span per outermost call.

        A call nested inside a span of the same name (an overriding method
        calling ``super()``) is not recorded again. ``attrs(args, kwargs,
        result)`` adds attributes to the span after the call returns.
        """
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not recorder.enabled:
                return fn(*args, **kwargs)
            stack = recorder._stack()
            if stack and recorder.spans[stack[-1]]["name"] == name:
                return fn(*args, **kwargs)
            span: Dict[str, Any] = {
                "name": name,
                "tid": threading.get_ident(),
                "parent": stack[-1] if stack else None,
            }
            with recorder._lock:
                index = len(recorder.spans)
                recorder.spans.append(span)
            stack.append(index)
            ok = False
            span["t0"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                span["t1"] = time.perf_counter()
                stack.pop()
                span["ok"] = ok
            if attrs is not None:
                span.update(attrs(args, kwargs, result))
            return result

        return wrapper

    def patch_method(self, cls: type, attr: str, name: str, attrs=None) -> None:
        """Wrap ``cls.attr`` (only where ``cls`` defines it itself)."""
        original = cls.__dict__[attr]
        setattr(cls, attr, self.wrap(name, original, attrs))

    def patch_function(self, module: Any, attr: str, name: str, attrs=None) -> None:
        """Wrap a module-level function and every ``from ... import`` alias.

        Callers that imported the function by name hold their own
        reference, so every loaded ``repro`` module attribute bound to the
        same object is replaced too.
        """
        original = getattr(module, attr)
        wrapped = self.wrap(name, original, attrs)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)

    def mark(self, name: str, **attrs: Any) -> None:
        """A zero-length span (a point event)."""
        now = time.perf_counter()
        span = {"name": name, "tid": threading.get_ident(), "parent": None,
                "t0": now, "t1": now, "ok": True}
        span.update(attrs)
        with self._lock:
            self.spans.append(span)

    def dump(self, path: str) -> None:
        with self._lock:
            spans = list(self.spans)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(spans, handle)


def _batch_stats(args: tuple, kwargs: dict, result: Any) -> Dict[str, Any]:
    # Grouping is derived from the requests themselves: the session's
    # last_batch_stats may be overwritten by a concurrent call.
    session, requests = args[0], args[1]
    groups = {session.group_fingerprint(r) for r in requests}
    return {
        "n": len(requests),
        "ids": [id(r) for r in requests],
        "groups": len(groups),
        "fits": sum(1 for _, samples in groups if samples is not None),
    }


def _submit_id(args: tuple, kwargs: dict, result: Any) -> Dict[str, Any]:
    return {"rid": id(args[1])}


def _finetune_epochs(args: tuple, kwargs: dict, result: Any) -> Dict[str, Any]:
    return {"epochs": int(getattr(result, "epochs_trained", 0))}


def _finetune_batch_groups(args: tuple, kwargs: dict, result: Any) -> Dict[str, Any]:
    return {"n": len(args[0])}


def _pretrain_epochs(args: tuple, kwargs: dict, result: Any) -> Dict[str, Any]:
    train = getattr(result, "train_result", None)
    return {"epochs": int(getattr(train, "epochs_trained", 0) or 0)}


def _cache_hit(args: tuple, kwargs: dict, result: Any) -> Dict[str, Any]:
    return {"hit": bool(result[1])}


def _observe_refreshed(args: tuple, kwargs: dict, result: Any) -> Dict[str, Any]:
    return {"refreshed": getattr(result, "refreshed", None) is not None}


def _handle_route(args: tuple, kwargs: dict, result: Any) -> Dict[str, Any]:
    return {"route": args[2].partition("?")[0], "status": int(result[0])}


def instrument(recorder: Recorder) -> None:
    """Wrap the public entry points of every layer the benchmark reports.

    Imports the layers first so that every ``from ... import`` alias of a
    wrapped function already exists when it is replaced.
    """
    import http.server

    import repro.api.session as api_session
    import repro.core.finetuning as finetuning
    import repro.core.model as core_model
    import repro.core.persistence as persistence
    import repro.core.pretraining as pretraining
    import repro.nn.batched as nn_batched
    import repro.nn.optim as nn_optim
    import repro.nn.tape as nn_tape
    import repro.online.session as online_session
    import repro.serve.batcher as batcher
    import repro.serve.cache as cache
    import repro.serve.schemas as schemas
    import repro.serve.server as server

    recorder.patch_method(server.ServeApp, "handle", "serve.handle", _handle_route)
    recorder.patch_function(schemas, "parse_predict_payload", "schemas.parse")
    recorder.patch_function(schemas, "prediction_to_payload", "schemas.serialize")
    recorder.patch_method(batcher.MicroBatcher, "submit", "batcher.submit", _submit_id)
    recorder.patch_method(cache.LruTtlCache, "get_or_load", "cache.get_or_load", _cache_hit)
    recorder.patch_method(api_session.Session, "predict_batch", "session.predict_batch", _batch_stats)
    recorder.patch_method(core_model.BellamyModel, "predict", "model.predict")
    recorder.patch_function(finetuning, "finetune", "finetune", _finetune_epochs)
    recorder.patch_function(finetuning, "finetune_batch", "finetune_batch", _finetune_batch_groups)
    recorder.patch_function(pretraining, "pretrain", "pretrain", _pretrain_epochs)
    recorder.patch_method(nn_tape.GraphCompiler, "run", "nn.tape_run")
    for cls in (nn_optim.Optimizer, nn_optim.Adam, nn_batched.BatchedAdam):
        recorder.patch_method(cls, "step", "nn.optim_step")
    recorder.patch_method(online_session.OnlineSession, "observe", "online.observe", _observe_refreshed)
    recorder.patch_method(online_session.OnlineSession, "scan", "online.scan")
    recorder.patch_method(persistence.ModelStore, "save", "store.save")
    recorder.patch_method(persistence.ModelStore, "load", "store.load")

    # Which client port each server handler thread serves: lets the load
    # generator pair its own request timings with this process's spans.
    original_handle = http.server.BaseHTTPRequestHandler.handle

    def handle(self: Any) -> None:
        recorder.mark("conn", port=int(self.client_address[1]))
        original_handle(self)

    http.server.BaseHTTPRequestHandler.handle = handle
