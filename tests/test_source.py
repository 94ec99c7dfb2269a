"""Static checks on the package source."""

import ast
import re
from pathlib import Path

from ssp import groups

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ssp"


def _modules():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}


def test_no_assert_statements():
    # python -O strips assert, so invariants must raise instead
    offenders = [
        f"{name}.py:{node.lineno}"
        for name, tree in _modules().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert offenders == []


def test_groups_does_not_import_the_module_layer():
    tree = _modules()["groups"]
    imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert not imported & {"hermitian", "dieudonne"}


def test_no_private_names_cross_package_modules():
    # a module's _-prefixed names are its own: no package module imports one
    # from another, or reads one off a package module it imported
    offenders = []
    for name, tree in _modules().items():
        package_modules = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "ssp"):
                offenders += [f"{name}.py:{node.lineno} {a.name}" for a in node.names if a.name.startswith("_")]
                if not node.module:
                    package_modules |= {a.asname or a.name for a in node.names}
        offenders += [
            f"{name}.py:{node.lineno} {node.value.id}.{node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and node.attr.startswith("_")
            and isinstance(node.value, ast.Name)
            and node.value.id in package_modules
        ]
    assert offenders == []


def _imported(tree) -> set:
    """Every dotted-name part `tree` imports: modules, submodules and names,
    so `from ssp.cli import main` and `from . import cli` both give "cli"."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            out |= set(node.module.split("."))
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            out |= {part for alias in node.names for part in alias.name.split(".")}
    return out


def test_verify_registry_layering():
    modules = _modules()
    cli_functions = {node.name for node in ast.walk(modules["cli"]) if isinstance(node, ast.FunctionDef)}
    assert "_verify_checks" not in cli_functions
    assert "verify" in _imported(modules["cli"])
    assert not _imported(modules["verify"]) & {"cli", "perfbench"}
    assert "verify" not in _imported(modules["groups"])


def _function(tree, qualname):
    scope = tree
    for name in qualname.split("."):
        scope = next(
            node
            for node in ast.iter_child_nodes(scope)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name
        )
    return scope


def _is_product(node):
    return isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)


def _own_fold(node):
    """A sum with a product operand: `acc + x * y` or `acc += x * y`."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        return _is_product(node.left) or _is_product(node.right)
    return isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Add) and _is_product(node.value)


def _calls_dot(fn):
    """Calls `dot(...)` or `linalg.dot(...)`."""
    for node in ast.walk(fn):
        if isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Name) and f.id == "dot":
                return True
            if isinstance(f, ast.Attribute) and f.attr == "dot" and getattr(f.value, "id", None) == "linalg":
                return True
    return False


def test_one_element_type():
    # F_{p^s} is witt_ring(p, s, 1): gf keeps polynomials and primality,
    # defines no element class and sits below witt
    gf = _modules()["gf"]
    assert [node.name for node in ast.walk(gf) if isinstance(node, ast.ClassDef)] == []
    assert "witt" not in _imported(gf)


def _inv_calls(tree) -> int:
    return sum(
        1
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "inv"
    )


def test_linalg_has_one_elimination_and_no_element_type_hook():
    modules = _modules()
    linalg = modules["linalg"]
    # rref is the one Gauss elimination: no other code in linalg inverts
    assert _inv_calls(linalg) == _inv_calls(_function(linalg, "rref")) > 0
    # dot is WittRing.dot, with no per-type kernel looked up ...
    names = {node.id for node in ast.walk(_function(linalg, "dot")) if isinstance(node, ast.Name)}
    assert "getattr" not in names
    # ... and no kernel on the element class to look up
    witt_elem = _function(modules["witt"], "WittElem")
    assert "dot" not in {node.name for node in witt_elem.body if isinstance(node, ast.FunctionDef)}


def test_sums_of_products_go_through_linalg_dot():
    modules = _modules()
    offenders = []
    for module, qualname in (
        ("linalg", "row_times"),
        ("linalg", "charpoly"),
        ("linalg", "_poly_mul"),
    ):
        fn = _function(modules[module], qualname)
        folds = [node.lineno for node in ast.walk(fn) if _own_fold(node)]
        if folds or not _calls_dot(fn):
            offenders.append((f"{module}.{qualname}", folds))
    assert offenders == []
    # row_times is linalg's one row product: mat_mul and right_mul use it
    linalg = modules["linalg"]
    for qualname in ("mat_mul", "right_mul"):
        fn = _function(linalg, qualname)
        assert "row_times" in {_callee(node) for node in ast.walk(fn) if isinstance(node, ast.Call)}, qualname
        assert not _calls_dot(fn), qualname


def test_row_memos_are_functools_cache():
    # the right_mul maps and mats_decode memoise through functools.cache,
    # with no hand-written dict memo (a try/except KeyError or a .get)
    modules = _modules()
    for module, qualname in (
        ("linalg", "right_mul"),
        ("ftables", "FieldTable.right_mul"),
        ("ftables", "FieldTable.mats_decode"),
    ):
        fn = _function(modules[module], qualname)
        nodes = list(ast.walk(fn))
        assert not any(isinstance(node, ast.Try) for node in nodes), qualname
        assert not any(isinstance(node, ast.Attribute) and node.attr == "get" for node in nodes), qualname
        assert "cache" in {_callee(node) for node in nodes if isinstance(node, ast.Call)}, qualname


def _is_lookup(node, table):
    """`table[x][y]` or `self.table[x][y]`."""
    if not (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Subscript)):
        return False
    name = node.value.value
    return getattr(name, "id", None) == table or getattr(name, "attr", None) == table


def _coded_fold(node):
    """A coded multiply-add: `add[acc][mul[a][b]]`."""
    return _is_lookup(node, "add") and _is_lookup(node.slice, "mul")


def test_coded_row_products_go_through_row_times():
    # FieldTable's one coded fold is row_times: mat_mul and right_mul fold
    # nothing themselves, and they and the covectors of similitude_frames
    # call it (the frame scan's norm keeps its own dot)
    tree = _modules()["ftables"]
    field_table = _function(tree, "FieldTable")
    methods = [fn for fn in field_table.body if isinstance(fn, ast.FunctionDef)]
    assert {fn.name for fn in methods if any(map(_coded_fold, ast.walk(fn)))} == {"row_times"}
    offenders = []
    for qualname in ("FieldTable.mat_mul", "FieldTable.right_mul", "similitude_frames"):
        called = {_callee(node) for node in ast.walk(_function(tree, qualname)) if isinstance(node, ast.Call)}
        if "row_times" not in called:
            offenders.append(qualname)
    assert offenders == []


def test_sweep_sieves_instead_of_testing_each_integer():
    # the range is sieved once; only SignatureParams tests each prime again,
    # with the two bases that prove it below 1 373 653 (gf._PSI)
    fn = _function(_modules()["cli"], "_cmd_sweep")
    called = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Name):
                called.add(f.id)
            elif isinstance(f, ast.Attribute):
                called.add(f"{getattr(f.value, 'id', '?')}.{f.attr}")
    assert not called & {"is_prime", "groups.is_prime", "gf.is_prime"}
    assert "primes_between" in called


def _callee(call):
    """The name a call calls: `f(...)` and `mod.f(...)` both give "f"."""
    f = call.func
    return f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None


def test_similitude_frames_filters_whole_lists():
    # the per-candidate path, a dot call per candidate and mat_mul per
    # frame, lives only in tests/test_groups.py as _frames_per_candidate;
    # the enumerator's dot closure serves the q^t vector scan alone
    fn = _function(_modules()["ftables"], "similitude_frames")
    assert "mat_mul" not in {_callee(node) for node in ast.walk(fn) if isinstance(node, ast.Call)}
    extend = _function(fn, "extend")
    assert "dot" not in {_callee(node) for node in ast.walk(extend) if isinstance(node, ast.Call)}


def test_equivariant_walk_multiplies_through_right_mul():
    # each edge is one right_mul map applied to the walk's transposes; a
    # generic product per edge redoes the rows the maps have stored, and
    # the walk steps against the permutations, so it inverts no matrix
    fn = _function(_modules()["count"], "equivariant_dimension")
    called = {_callee(node) for node in ast.walk(fn) if isinstance(node, ast.Call)}
    assert "mat_mul" not in called
    assert not called & {"inverse", "inv"}
    assert "right_mul" in called


def _modular_power_loops(tree):
    """The loops and comprehensions whose body calls three-argument pow,
    as Miller-Rabin does."""
    loops = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, loops)
        and any(isinstance(c, ast.Call) and _callee(c) == "pow" and len(c.args) == 3 for c in ast.walk(node))
    ]


def test_one_miller_rabin_loop_on_the_fixed_bases():
    # gf.is_prime is the one primality routine: one loop of modular powers
    # in gf, over _MR_BASES or a prefix of it, with the loop's base in pow
    gf = _modules()["gf"]
    loops = _modular_power_loops(gf)
    assert len(loops) == 1
    (loop,) = loops
    assert loop in list(ast.walk(_function(gf, "is_prime")))
    assert isinstance(loop, ast.For) and isinstance(loop.target, ast.Name)
    bases = loop.iter.value if isinstance(loop.iter, ast.Subscript) else loop.iter
    assert isinstance(bases, ast.Name) and bases.id == "_MR_BASES"
    powers = [c for c in ast.walk(loop) if isinstance(c, ast.Call) and _callee(c) == "pow"]
    assert all(isinstance(c.args[0], ast.Name) and c.args[0].id == loop.target.id for c in powers)


def _is_square(node):
    """`g * g` or `g ** 2`."""
    if not isinstance(node, ast.BinOp):
        return False
    if isinstance(node.op, ast.Mult):
        return isinstance(node.left, ast.Name) and isinstance(node.right, ast.Name) and node.left.id == node.right.id
    return isinstance(node.op, ast.Pow) and isinstance(node.right, ast.Constant) and node.right.value == 2


def test_lemma_gp_check_counts_fibres_instead_of_filtering():
    groups = _modules()["groups"]
    # no loop over all q^(g^2) candidate matrices anywhere in groups
    squares = [
        node.lineno
        for node in ast.walk(groups)
        if isinstance(node, ast.Call)
        and _callee(node) == "product"
        and any(kw.arg == "repeat" and _is_square(kw.value) for kw in node.keywords)
    ]
    assert squares == []
    # the fibres are counted by rank, in lemma_gp_check or a groups helper it
    # calls: linalg's or the packed rank mod p of ftables.packed_fp_rank
    defs = {node.name: node for node in groups.body if isinstance(node, ast.FunctionDef)}
    reached, todo = set(), ["lemma_gp_check"]
    while todo:
        for node in ast.walk(defs[todo.pop()]):
            name = isinstance(node, ast.Call) and _callee(node)
            if name and name not in reached:
                reached.add(name)
                if name in defs:
                    todo.append(name)
    assert reached & {"rank", "packed_fp_rank"}


def _mentions(pattern: str) -> list:
    """Each match of `pattern` in the package source, as "file:match"."""
    gone = re.compile(pattern)
    return [
        f"{path.name}:{match.group()}"
        for path in sorted(SRC.glob("*.py"))
        for match in gone.finditer(path.read_text(encoding="utf-8"))
    ]


def test_one_coded_ring():
    # the level-p lemma runs on F_{p^2} field tables alone: ftables has the
    # one coded class, and no dense quaternion table or second ring is left
    classes = [node.name for node in ast.walk(_modules()["ftables"]) if isinstance(node, ast.ClassDef)]
    assert classes == ["FieldTable"]
    assert _mentions(r"\b(QuatTable|quat_table|CodedRing|QuatModP)\b") == []


def test_one_path_per_arithmetic_job():
    # gf has one polynomial remainder, Witt operands are ring elements with
    # no reflected int operators, and basic-for-GL is is_isoclinic itself
    assert _mentions(r"\b(_pmod|__radd__|__rsub__|__rmul__|is_basic_gl)\b") == []


def test_frozen_objects_store_only_their_inputs():
    # derived matrices are cached properties, not hand-rolled memos in an
    # instance's __dict__; Witt elements are reduced by the modulus in
    # WittRing.dot alone; an action always comes with its alpha
    assert _mentions(r"__dict__|\b_reduce_poly\b|action-squares-to-scalar") == []


def test_each_input_is_checked_where_its_object_is_made():
    # a module spec is read by newton_polygon_with_retry once for every
    # level, and the 1..64 caps on n and s are WittRing's
    assert _mentions(r"\b(module_from_dict|truncation_level|n_override)\b") == []


def test_each_exception_carries_its_exit_code():
    # cli.main reads an SspError's class attribute `code`: no exit-code
    # table is left, and gf and witt each run one Euclid and one Horner
    assert _mentions(r"\b(EXIT_CODES|exit_code|_pgcd|_eval_modulus_derivative)\b") == []


def test_lemma_fibres_are_one_linear_combination_each():
    # the images of the level-p lemma are built once per call, not per D,
    # and groups takes no rank from linalg
    assert _mentions(r"\b_fibre_size\b") == []
    assert "linalg" not in _imported(_modules()["groups"])


def test_class_walk_multiplies_by_generators_and_phi_has_one_home():
    # each closure coset is a generator's image of a listed coset, and Phi
    # is witt.canonical_lie_action, encoded by the lemma's field table
    assert _mentions(r"\b(add_coset|_phi_codes)\b") == []


def test_hyperbolic_pairs_come_from_one_dot_product_distribution():
    # hyperbolic_pair_count tabulates a.y once over the pairs of
    # half-vectors: no per-u tables of values are built
    assert _mentions(r"\b_value_counts\b") == []


def _functions(tree):
    return [node for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]


def _defaulted(fn) -> list:
    """The names of the parameters of `fn` that have a default."""
    args = fn.args
    positional = args.posonlyargs + args.args
    with_default = positional[len(positional) - len(args.defaults) :]
    with_default += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return [a.arg for a in with_default]


def test_one_enumeration_limit():
    # SSP_MAX_ENUM, read by EnumBudget alone, is the one way to set the limit:
    # no function takes a `budget` or a `meter` with a default, and
    # EnumBudget only a name
    modules = _modules()
    offenders = [
        f"{name}.{fn.name}"
        for name, tree in modules.items()
        for fn in _functions(tree)
        if {"budget", "meter"} & set(_defaulted(fn))
    ]
    assert offenders == []
    init = _function(modules["errors"], "EnumBudget.__init__")
    assert [a.arg for a in init.args.args] == ["self", "routine"]
    assert not (init.args.kwonlyargs or init.args.vararg or init.args.kwarg)
    readers = {
        name
        for name, tree in modules.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv")
    }
    assert readers == {"errors"}


def _calls_in_functions(tree):
    """(name of the innermost function around it, call) for every call."""
    stack = [(tree, None)]
    while stack:
        node, fn = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = node.name
        if isinstance(node, ast.Call):
            yield fn, node
        stack.extend((child, fn) for child in ast.iter_child_nodes(node))


def test_each_meter_is_opened_by_the_routine_it_names():
    # a budget error names what was running: EnumBudget("name") is opened
    # in the function `name`, or in `_cmd_name` for the subcommand `name`,
    # and a helper that builds part of an enumeration takes its caller's meter
    opened, offenders = 0, []
    for module, tree in _modules().items():
        for fn, call in _calls_in_functions(tree):
            if _callee(call) != "EnumBudget":
                continue
            opened += 1
            args = call.args
            name = args[0].value if len(args) == 1 and isinstance(args[0], ast.Constant) else None
            if call.keywords or not (fn and isinstance(name, str) and name in (fn, fn.removeprefix("_cmd_"))):
                offenders.append(f"{module}.py:{call.lineno} {fn} opens {ast.unparse(call)}")
    assert offenders == []
    assert opened


def test_group_families_live_in_groups():
    # the family table is groups.FAMILIES; cli names no family and maps none
    modules = _modules()
    names = set(groups.FAMILIES) | {"gsp_mod"}
    strings = {node.value for node in ast.walk(modules["cli"]) if isinstance(node, ast.Constant)}
    assert not {s for s in strings if s in names or "gusplit" in str(s)}
    targets = [t for node in ast.walk(modules["cli"]) if isinstance(node, ast.Assign) for t in node.targets]
    assert not [t.id for t in targets if isinstance(t, ast.Name) and "FAMIL" in t.id.upper()]
    # groups writes each family name once, as a key of the table, so no if
    # chain over the names is left in GroupSpec
    named = [node.value for node in ast.walk(modules["groups"]) if isinstance(node, ast.Constant) and node.value in names]
    assert sorted(named) == sorted(groups.FAMILIES)


def test_cli_states_each_subcommand_once():
    # a subcommand's handler is _cmd_<name>, --csv is added to every
    # subparser in one loop, and a report echoes the parsed arguments
    cli = _modules()["cli"]
    calls = [node for node in ast.walk(cli) if isinstance(node, ast.Call)]
    assert "set_defaults" not in {_callee(node) for node in calls}
    csv_flags = [
        node
        for node in calls
        if _callee(node) == "add_argument" and any(isinstance(a, ast.Constant) and a.value == "--csv" for a in node.args)
    ]
    assert len(csv_flags) == 1
    assert "_echo" not in {node.name for node in _functions(cli)}


def test_orders_are_counted_not_listed():
    # an order is block_similitude_order's count of frames: no len(...)
    # wraps a call that lists the elements of a group
    listers = {"block_similitudes", "gusplit_group_elements"}
    offenders = [
        f"{name}.py:{node.lineno}"
        for name, tree in _modules().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and _callee(node) == "len"
        and any(isinstance(sub, ast.Call) and _callee(sub) in listers for arg in node.args for sub in ast.walk(arg))
    ]
    assert offenders == []


def _public_definitions(tree):
    """The public functions and classes at the top of a module, and the
    public methods of its classes, as (qualname, name) pairs."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                    yield f"{node.name}.{sub.name}", sub.name


def _local_names(fn) -> set:
    """The names a function or lambda binds itself: its parameters and
    the targets it assigns, but not those of the functions nested in it."""
    args = fn.args
    out = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg] if a}
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            out.add(node.id)
        if not isinstance(node, (ast.FunctionDef, ast.Lambda, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))
    return out


def _referenced_names(tree) -> set:
    """Every name `tree` reads, imports or looks up as an attribute.  A
    bare name counts only where no function around it binds it, so a
    local list called `inverse` is not a caller of a function `inverse`."""
    out = set()
    stack = [(tree, frozenset())]
    while stack:
        node, local = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            local = local | _local_names(node)
        if isinstance(node, ast.Name) and node.id not in local:
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.split(".")[-1])
        stack.extend((child, local) for child in ast.iter_child_nodes(node))
    return out


def test_every_public_name_has_a_caller_outside_the_tests():
    # the package keeps only what it or the benchmark runs: a function,
    # method or class that only tests call belongs in those tests
    modules = _modules()
    callers = set().union(*map(_referenced_names, modules.values()))
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        callers |= _referenced_names(ast.parse(path.read_text(encoding="utf-8")))
    unused = [
        f"{module}.{qualname}"
        for module, tree in modules.items()
        for qualname, name in _public_definitions(tree)
        if name not in callers
    ]
    assert unused == []


def test_reports_are_written_by_one_json_writer():
    # cli._json writes every JSON report; no module encodes with json.dumps
    # or json.dump, and no sweep row is made into a dict to be written
    modules = _modules()
    offenders = [
        f"{name}.py:{node.lineno}"
        for name, tree in modules.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and _callee(node) in ("dumps", "dump")
    ]
    assert offenders == []
    assert "_leaf_dicts" not in {node.name for node in _functions(modules["cli"])}
    emit = _function(modules["cli"], "_emit")
    assert "_json" in {_callee(node) for node in ast.walk(emit) if isinstance(node, ast.Call)}


def test_each_process_cache_has_one_reason():
    # the process-lifetime caches of the package, one per reason; what the
    # bound needs that does not depend on p is the one record
    # count._level_part, so no factor it reads keeps a cache of its own
    cached = {
        f"{name}.{node.name}"
        for name, tree in _modules().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        for decorator in node.decorator_list
        if ast.unparse(decorator.func if isinstance(decorator, ast.Call) else decorator).split(".")[-1]
        in ("cache", "lru_cache")
    }
    assert cached == {
        "cli._build_parser",
        "count._squarefree",
        "count._level_part",
        "exact.bernoulli",
        "ftables._field_table",
        "witt.witt_ring",
        "witt.hensel_sqrt",
    }
    assert not {"_level_factor", "_mass_constant_checked"} & {node.name for node in _functions(_modules()["count"])}
