"""Symbolic framework: tensors, planning, layers, optimizers."""

import pytest

from repro.framework.dtypes import DType
from repro.framework.layers import (
    Conv2d,
    Dropout,
    Embedding,
    Flatten,
    LayerNorm,
    Linear,
    MaxPool2d,
    MultiHeadSelfAttention,
    make_activation,
)
from repro.framework.layers.activation import ReLU, Softmax
from repro.framework.layers.norm import BatchNorm2d
from repro.framework.loss import CrossEntropyLoss
from repro.framework.module import Module, Residual, Sequential
from repro.framework.optim import make_optimizer, optimizer_names
from repro.framework.plan import PlanContext
from repro.framework.tensor import TensorMeta, tensor


class TestTensorMeta:
    def test_numel_and_nbytes(self):
        meta = tensor(4, 8, dtype=DType.float32)
        assert meta.numel == 32
        assert meta.nbytes == 128

    def test_dtype_sizes(self):
        assert tensor(10, dtype=DType.float16).nbytes == 20
        assert tensor(10, dtype=DType.int64).nbytes == 80
        assert tensor(10, dtype=DType.uint8).nbytes == 10

    def test_invalid_shape(self):
        with pytest.raises(ValueError):
            TensorMeta((4, 0))

    def test_reshape_preserves_bytes(self):
        meta = tensor(4, 8)
        reshaped = meta.reshape_keep_bytes((32,))
        assert reshaped.nbytes == meta.nbytes

    def test_reshape_mismatch_raises(self):
        with pytest.raises(ValueError):
            tensor(4, 8).reshape_keep_bytes((33,))

    def test_str(self):
        assert str(tensor(2, 3)) == "float32[2x3]"


class TestPlanContext:
    def test_sequential_chaining(self):
        ctx = PlanContext(tensor(4, 16))
        Linear(16, 32, name="fc")(ctx)
        plan = ctx.finish()
        assert plan.output_meta.shape == (4, 32)
        assert plan.ops[0].inputs == (PlanContext.INPUT_OP_ID,)

    def test_module_paths_nest(self):
        ctx = PlanContext(tensor(4, 16), root="model")
        Sequential(Linear(16, 16, name="fc"), name="body")(ctx)
        plan = ctx.finish()
        assert plan.ops[0].module_path.startswith("model.")
        assert "fc" in plan.ops[0].module_path

    def test_empty_plan_rejected(self):
        ctx = PlanContext(tensor(1, 1))
        with pytest.raises(ValueError):
            ctx.finish()

    def test_consumers_map(self):
        ctx = PlanContext(tensor(2, 8))
        body = Sequential(Linear(8, 8, name="f"), name="b")
        Residual(body)(ctx)
        plan = ctx.finish()
        consumers = plan.consumers()
        # the input feeds both the linear and the residual add
        assert len(consumers[PlanContext.INPUT_OP_ID]) == 2


class TestLayers:
    def test_linear_shapes_and_params(self):
        layer = Linear(128, 64)
        assert layer.parameter_bytes() == (128 * 64 + 64) * 4
        ctx = PlanContext(tensor(2, 10, 128))
        layer(ctx)
        assert ctx.finish().output_meta.shape == (2, 10, 64)

    def test_linear_shape_mismatch(self):
        ctx = PlanContext(tensor(2, 100))
        with pytest.raises(ValueError):
            Linear(128, 64)(ctx)

    def test_conv_output_shape(self):
        ctx = PlanContext(tensor(1, 3, 32, 32))
        Conv2d(3, 16, 3, stride=2, padding=1)(ctx)
        assert ctx.finish().output_meta.shape == (1, 16, 16, 16)

    def test_conv_1x1_has_no_im2col(self):
        ctx = PlanContext(tensor(1, 8, 16, 16))
        Conv2d(8, 16, 1)(ctx)
        assert ctx.finish().ops[0].workspace_bytes == 0

    def test_conv_3x3_declares_workspace(self):
        ctx = PlanContext(tensor(1, 8, 16, 16))
        Conv2d(8, 16, 3, padding=1)(ctx)
        op = ctx.finish().ops[0]
        assert op.workspace_bytes == 8 * 9 * 16 * 16 * 4

    def test_depthwise_groups(self):
        layer = Conv2d(16, 16, 3, groups=16, bias=False)
        assert layer.weight.meta.shape == (16, 1, 3, 3)

    def test_conv_invalid_groups(self):
        with pytest.raises(ValueError):
            Conv2d(10, 16, 3, groups=3)

    def test_maxpool_saves_indices(self):
        ctx = PlanContext(tensor(1, 4, 8, 8))
        MaxPool2d(2)(ctx)
        op = ctx.finish().ops[0]
        assert op.extra_saved[0].dtype is DType.int64
        assert op.extra_saved[0].shape == (1, 4, 4, 4)

    def test_batchnorm_saves_input_and_stats(self):
        ctx = PlanContext(tensor(2, 8, 4, 4))
        BatchNorm2d(8)(ctx)
        op = ctx.finish().ops[0]
        assert op.saves_input
        assert op.extra_saved

    def test_layernorm_validates_dim(self):
        ctx = PlanContext(tensor(2, 4, 32))
        with pytest.raises(ValueError):
            LayerNorm(64)(ctx)

    def test_relu_inplace_is_alias(self):
        ctx = PlanContext(tensor(2, 8))
        ReLU(inplace=True)(ctx)
        op = ctx.finish().ops[0]
        assert op.inplace
        assert op.output_bytes == 0

    def test_relu_materialized_by_default(self):
        ctx = PlanContext(tensor(2, 8))
        ReLU()(ctx)
        assert ctx.finish().ops[0].output_bytes == 64

    def test_softmax_saves_output(self):
        ctx = PlanContext(tensor(2, 4, 16, 16))
        Softmax()(ctx)
        assert ctx.finish().ops[0].saves_output

    def test_dropout_zero_p_is_view(self):
        ctx = PlanContext(tensor(2, 8))
        Dropout(0.0)(ctx)
        assert ctx.finish().ops[0].kind == "view"

    def test_dropout_mask_is_bytes(self):
        ctx = PlanContext(tensor(2, 8))
        Dropout(0.5)(ctx)
        op = ctx.finish().ops[0]
        assert op.extra_saved[0].nbytes == 16  # uint8 mask

    def test_dropout_invalid_p(self):
        with pytest.raises(ValueError):
            Dropout(1.0)

    def test_embedding_requires_int_indices(self):
        ctx = PlanContext(tensor(2, 8))  # float32
        with pytest.raises(ValueError):
            Embedding(100, 16)(ctx)

    def test_flatten_is_view(self):
        ctx = PlanContext(tensor(2, 4, 4, 4))
        Flatten()(ctx)
        op = ctx.finish().ops[0]
        assert op.kind == "view" and op.output_bytes == 0

    def test_make_activation_unknown(self):
        with pytest.raises(ValueError):
            make_activation("quantum")


class TestAttention:
    def test_materializes_quadratic_scores(self):
        ctx = PlanContext(tensor(2, 16, 64))
        MultiHeadSelfAttention(64, 4, dropout=0.0)(ctx)
        plan = ctx.finish()
        score_ops = [o for o in plan.ops if o.name == "aten::bmm"]
        assert score_ops[0].output.shape == (2, 4, 16, 16)

    def test_gqa_shrinks_kv_projection(self):
        full = MultiHeadSelfAttention(64, 8, bias=False)
        gqa = MultiHeadSelfAttention(64, 8, num_kv_heads=2, bias=False)
        assert gqa.parameter_bytes() < full.parameter_bytes()

    def test_invalid_head_split(self):
        with pytest.raises(ValueError):
            MultiHeadSelfAttention(65, 4)
        with pytest.raises(ValueError):
            MultiHeadSelfAttention(64, 8, num_kv_heads=3)

    def test_dropout_adds_mask(self):
        ctx = PlanContext(tensor(1, 8, 32))
        MultiHeadSelfAttention(32, 2, dropout=0.1)(ctx)
        masked = [o for o in ctx.ops if o.extra_saved]
        assert masked


class TestResidual:
    def test_shape_mismatch_rejected(self):
        ctx = PlanContext(tensor(2, 8))
        with pytest.raises(ValueError):
            Residual(Linear(8, 16))(ctx)

    def test_add_consumes_both_branches(self):
        ctx = PlanContext(tensor(2, 8))
        Residual(Linear(8, 8))(ctx)
        add_op = ctx.finish().ops[-1]
        assert len(add_op.inputs) == 2


class TestLoss:
    def test_cross_entropy_saves_log_probs(self):
        ctx = PlanContext(tensor(4, 10))
        CrossEntropyLoss()(ctx)
        plan = ctx.finish()
        assert plan.ops[0].saves_output  # log_softmax
        assert plan.output_meta.shape == (1,)


class TestOptimizers:
    def test_all_names_instantiate(self):
        for name in optimizer_names():
            assert make_optimizer(name) is not None

    def test_unknown_optimizer(self):
        with pytest.raises(ValueError):
            make_optimizer("lion")

    def test_adam_doubles_param_memory(self):
        opt = make_optimizer("adam")
        param = tensor(100, 100)
        assert opt.state_bytes(param) == 2 * param.nbytes

    def test_sgd_is_stateless(self):
        opt = make_optimizer("sgd")
        assert opt.state_bytes(tensor(100)) == 0
        assert not opt.stateful

    def test_sgd_momentum_has_buffer(self):
        opt = make_optimizer("sgd_momentum")
        param = tensor(100)
        assert opt.state_bytes(param) == param.nbytes

    def test_rmsprop_adagrad_single_buffer(self):
        param = tensor(64, 64)
        assert make_optimizer("rmsprop").state_bytes(param) == param.nbytes
        assert make_optimizer("adagrad").state_bytes(param) == param.nbytes

    def test_adafactor_factored_for_matrices(self):
        opt = make_optimizer("adafactor")
        matrix = tensor(1024, 512)
        assert opt.state_bytes(matrix) == (1024 + 512) * 4

    def test_adafactor_full_for_vectors(self):
        opt = make_optimizer("adafactor")
        vec = tensor(1024)
        assert opt.state_bytes(vec) == vec.nbytes

    def test_adafactor_beats_adam_on_large_matrices(self):
        matrix = tensor(4096, 4096)
        adafactor = make_optimizer("adafactor").state_bytes(matrix)
        adam = make_optimizer("adam").state_bytes(matrix)
        assert adafactor < adam / 100


class TestModuleIntrospection:
    def test_parameters_qualified_names(self):
        model = Sequential(Linear(8, 8, name="fc"), name="net")
        names = [p.name for p in model.parameters()]
        assert any("fc" in n and "weight" in n for n in names)

    def test_num_parameters(self):
        model = Linear(10, 5)
        assert model.num_parameters() == 55

    def test_plan_not_implemented(self):
        class Bare(Module):
            pass

        ctx = PlanContext(tensor(1, 1))
        with pytest.raises(NotImplementedError):
            Bare()(ctx)
